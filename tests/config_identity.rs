//! Config identity pins: every checked-in sweep spec and every documented
//! `fedms run` flag group resolves to a fixed `FedMsConfig`, named by its
//! `stable_hash`. A change to how override keys, flags or kind strings are
//! interpreted that alters any resolved config fails here.

use std::path::{Path, PathBuf};
use std::process::Command;

use fedms::exp::SweepSpec;
use fedms::FedMsConfig;

/// Per spec file: every trial's `(id, config_hash)` in expansion order.
const SPEC_PINS: &[(&str, &[(&str, &str)])] = &[
    (
        "comm.toml",
        &[
            ("upload-sparse-s42-8d436147", "8d436147b48f917f"),
            ("upload-sparse-s43-a2ef31af", "a2ef31afd85d8482"),
            ("upload-sparse-s44-4fa9c0ef", "4fa9c0efab9fb2ed"),
            ("upload-redundant-3-s42-7535d908", "7535d90835d68765"),
            ("upload-redundant-3-s43-2b276356", "2b2763564825761a"),
            ("upload-redundant-3-s44-a2347ca7", "a2347ca76fe9fe6b"),
            ("upload-full-s42-174dcf7f", "174dcf7fc44bf68c"),
            ("upload-full-s43-41ae953e", "41ae953eb07537f1"),
            ("upload-full-s44-937d20b8", "937d20b805255ab2"),
        ],
    ),
    (
        "dual.toml",
        &[
            (
                "byzantine-clients-0-filter-trimmed-0-2-server-filter-median-s42-1416bc20",
                "1416bc20e495ef97",
            ),
            (
                "byzantine-clients-0-filter-trimmed-0-2-server-filter-median-s43-622e0ec7",
                "622e0ec7b0fdab02",
            ),
            (
                "byzantine-clients-0-filter-trimmed-0-2-server-filter-median-s44-b1f3fe28",
                "b1f3fe2878e12d0d",
            ),
            (
                "byzantine-clients-0-filter-trimmed-0-2-server-filter-mean-s42-9b74f3a7",
                "9b74f3a7990c7716",
            ),
            (
                "byzantine-clients-0-filter-trimmed-0-2-server-filter-mean-s43-610e6e41",
                "610e6e41ff4352c3",
            ),
            (
                "byzantine-clients-0-filter-trimmed-0-2-server-filter-mean-s44-f1929cc1",
                "f1929cc183f3d224",
            ),
            (
                "byzantine-clients-0-filter-mean-server-filter-median-s42-0054b9fa",
                "0054b9fa81e93207",
            ),
            (
                "byzantine-clients-0-filter-mean-server-filter-median-s43-8f3c6108",
                "8f3c610813a5ca32",
            ),
            (
                "byzantine-clients-0-filter-mean-server-filter-median-s44-2bfb4f19",
                "2bfb4f1952d301fd",
            ),
            ("byzantine-clients-0-filter-mean-server-filter-mean-s42-814f6961", "814f696170619906"),
            ("byzantine-clients-0-filter-mean-server-filter-mean-s43-7553fd2a", "7553fd2a46d77373"),
            ("byzantine-clients-0-filter-mean-server-filter-mean-s44-ed5ab2fe", "ed5ab2fe72dc4a94"),
            (
                "byzantine-clients-5-filter-trimmed-0-2-server-filter-median-s42-029fad51",
                "029fad514e01b8ca",
            ),
            (
                "byzantine-clients-5-filter-trimmed-0-2-server-filter-median-s43-4017a3e3",
                "4017a3e3efa9209f",
            ),
            (
                "byzantine-clients-5-filter-trimmed-0-2-server-filter-median-s44-cb847367",
                "cb847367f4d78160",
            ),
            (
                "byzantine-clients-5-filter-trimmed-0-2-server-filter-mean-s42-366f8dcf",
                "366f8dcfeda0b59b",
            ),
            (
                "byzantine-clients-5-filter-trimmed-0-2-server-filter-mean-s43-d5b0a54a",
                "d5b0a54a4aeb71ae",
            ),
            (
                "byzantine-clients-5-filter-trimmed-0-2-server-filter-mean-s44-dd6213cd",
                "dd6213cdf3056551",
            ),
            (
                "byzantine-clients-5-filter-mean-server-filter-median-s42-506ca891",
                "506ca89184f9aafa",
            ),
            (
                "byzantine-clients-5-filter-mean-server-filter-median-s43-fec824f5",
                "fec824f5af09ef0f",
            ),
            (
                "byzantine-clients-5-filter-mean-server-filter-median-s44-c45a04e8",
                "c45a04e8ed3d3d50",
            ),
            ("byzantine-clients-5-filter-mean-server-filter-mean-s42-7b934a9f", "7b934a9f42813b4b"),
            ("byzantine-clients-5-filter-mean-server-filter-mean-s43-b472bb43", "b472bb43a5ba469e"),
            ("byzantine-clients-5-filter-mean-server-filter-mean-s44-96816e96", "96816e963302a981"),
            (
                "byzantine-clients-10-filter-trimmed-0-2-server-filter-median-s42-52d5e9f8",
                "52d5e9f8c85dfd04",
            ),
            (
                "byzantine-clients-10-filter-trimmed-0-2-server-filter-median-s43-63214754",
                "632147546800aac9",
            ),
            (
                "byzantine-clients-10-filter-trimmed-0-2-server-filter-median-s44-8d0754d3",
                "8d0754d38461fcc6",
            ),
            (
                "byzantine-clients-10-filter-trimmed-0-2-server-filter-mean-s42-320d38d3",
                "320d38d3c9c13ebd",
            ),
            (
                "byzantine-clients-10-filter-trimmed-0-2-server-filter-mean-s43-8e975508",
                "8e975508d0a47a48",
            ),
            (
                "byzantine-clients-10-filter-trimmed-0-2-server-filter-mean-s44-02cc36ba",
                "02cc36ba170e5d4f",
            ),
            (
                "byzantine-clients-10-filter-mean-server-filter-median-s42-9ec6195b",
                "9ec6195b5730c9a4",
            ),
            (
                "byzantine-clients-10-filter-mean-server-filter-median-s43-8419981f",
                "8419981f57b92269",
            ),
            (
                "byzantine-clients-10-filter-mean-server-filter-median-s44-3208670a",
                "3208670a71c053e6",
            ),
            (
                "byzantine-clients-10-filter-mean-server-filter-mean-s42-5532689f",
                "5532689f47d915dd",
            ),
            (
                "byzantine-clients-10-filter-mean-server-filter-mean-s43-519c2530",
                "519c2530f1fcfbe8",
            ),
            (
                "byzantine-clients-10-filter-mean-server-filter-mean-s44-5dff7bcd",
                "5dff7bcd1f3c3f6f",
            ),
        ],
    ),
    (
        "fig2-beta-sweep.toml",
        &[
            ("filter-trimmed-0-0-s42-d0fb645e", "d0fb645e541976af"),
            ("filter-trimmed-0-0-s43-30f09e16", "30f09e16260e7eb2"),
            ("filter-trimmed-0-0-s44-420b7ca7", "420b7ca718cb811d"),
            ("filter-trimmed-0-1-s42-ceecca93", "ceecca939dcc730e"),
            ("filter-trimmed-0-1-s43-97cf3d1d", "97cf3d1da80367fb"),
            ("filter-trimmed-0-1-s44-ce5a507f", "ce5a507f3a5d92dc"),
            ("filter-trimmed-0-2-s42-66b20bdc", "66b20bdccdc1cdab"),
            ("filter-trimmed-0-2-s43-a5a528da", "a5a528da35c9d7fe"),
            ("filter-trimmed-0-2-s44-31a59dac", "31a59dac72be7ae1"),
            ("filter-trimmed-0-3-s42-081ec2b3", "081ec2b3f4489c28"),
            ("filter-trimmed-0-3-s43-151a0dd2", "151a0dd22bbb831d"),
            ("filter-trimmed-0-3-s44-03ff2f41", "03ff2f4138fe80b2"),
            ("filter-trimmed-0-4-s42-8d06da22", "8d06da22f1799fe5"),
            ("filter-trimmed-0-4-s43-9bcaa6e5", "9bcaa6e5d0809d50"),
            ("filter-trimmed-0-4-s44-1ba74d59", "1ba74d59567baf17"),
        ],
    ),
    (
        "fig2-filters.toml",
        &[
            ("filter-trimmed-0-2-s42-66b20bdc", "66b20bdccdc1cdab"),
            ("filter-trimmed-0-2-s43-a5a528da", "a5a528da35c9d7fe"),
            ("filter-trimmed-0-2-s44-31a59dac", "31a59dac72be7ae1"),
            ("filter-median-s42-28f8685e", "28f8685eada072aa"),
            ("filter-median-s43-15ddfa40", "15ddfa40ec41ae27"),
            ("filter-median-s44-cba62764", "cba627643f070320"),
            ("filter-krum-2-s42-4aa112b8", "4aa112b832bbfe69"),
            ("filter-krum-2-s43-448e1095", "448e109569eb44d4"),
            ("filter-krum-2-s44-1a4ef8e8", "1a4ef8e848f6a1b3"),
            ("filter-multikrum-2-4-s42-e61e73ad", "e61e73adfd6ce9b1"),
            ("filter-multikrum-2-4-s43-64693444", "64693444627a47dc"),
            ("filter-multikrum-2-4-s44-2dde20e2", "2dde20e2d0201cfb"),
            ("filter-geomedian-s42-5f1b6ef8", "5f1b6ef83442e615"),
            ("filter-geomedian-s43-82b62919", "82b6291941765940"),
            ("filter-geomedian-s44-68e5eb3a", "68e5eb3a4c1424c7"),
        ],
    ),
    (
        "fig2.toml",
        &[
            ("attack-noise-filter-trimmed-0-2-s42-8d436147", "8d436147b48f917f"),
            ("attack-noise-filter-trimmed-0-2-s43-a2ef31af", "a2ef31afd85d8482"),
            ("attack-noise-filter-trimmed-0-2-s44-4fa9c0ef", "4fa9c0efab9fb2ed"),
            ("attack-noise-filter-trimmed-0-1-s42-5396ddb8", "5396ddb832b132e2"),
            ("attack-noise-filter-trimmed-0-1-s43-f2ae5bb4", "f2ae5bb48902b5df"),
            ("attack-noise-filter-trimmed-0-1-s44-28f38a73", "28f38a736de0c058"),
            ("attack-noise-filter-mean-s42-ae9e3c4c", "ae9e3c4c10f3195f"),
            ("attack-noise-filter-mean-s43-0f86be4f", "0f86be4fbaa19662"),
            ("attack-noise-filter-mean-s44-cfef7200", "cfef720090914ecd"),
            ("attack-random-filter-trimmed-0-2-s42-66b20bdc", "66b20bdccdc1cdab"),
            ("attack-random-filter-trimmed-0-2-s43-a5a528da", "a5a528da35c9d7fe"),
            ("attack-random-filter-trimmed-0-2-s44-31a59dac", "31a59dac72be7ae1"),
            ("attack-random-filter-trimmed-0-1-s42-ceecca93", "ceecca939dcc730e"),
            ("attack-random-filter-trimmed-0-1-s43-97cf3d1d", "97cf3d1da80367fb"),
            ("attack-random-filter-trimmed-0-1-s44-ce5a507f", "ce5a507f3a5d92dc"),
            ("attack-random-filter-mean-s42-d42befa3", "d42befa385528fbb"),
            ("attack-random-filter-mean-s43-c7ea391a", "c7ea391a0e0c23ce"),
            ("attack-random-filter-mean-s44-2851046d", "2851046daa55e871"),
            ("attack-safeguard-filter-trimmed-0-2-s42-eb4927a3", "eb4927a3f4c71ece"),
            ("attack-safeguard-filter-trimmed-0-2-s43-f78ade2d", "f78ade2d6c0d8abb"),
            ("attack-safeguard-filter-trimmed-0-2-s44-8e4d4884", "8e4d4884307ea49c"),
            ("attack-safeguard-filter-trimmed-0-1-s42-af4598f1", "af4598f1c36d926b"),
            ("attack-safeguard-filter-trimmed-0-1-s43-ef02279d", "ef02279d405fcbbe"),
            ("attack-safeguard-filter-trimmed-0-1-s44-d459a015", "d459a015355e75a1"),
            ("attack-safeguard-filter-mean-s42-c495e215", "c495e215bd1c971e"),
            ("attack-safeguard-filter-mean-s43-8bb67171", "8bb6717159e38bcb"),
            ("attack-safeguard-filter-mean-s44-7d888943", "7d888943715a96ac"),
            ("attack-backward-filter-trimmed-0-2-s42-6ebb0333", "6ebb03331526e471"),
            ("attack-backward-filter-trimmed-0-2-s43-b15858bf", "b15858bfb494a59c"),
            ("attack-backward-filter-trimmed-0-2-s44-1a95ee68", "1a95ee68f0238bbb"),
            ("attack-backward-filter-trimmed-0-1-s42-4610f53a", "4610f53a93c45028"),
            ("attack-backward-filter-trimmed-0-1-s43-530c4058", "530c4058cb37371d"),
            ("attack-backward-filter-trimmed-0-1-s44-41f161c7", "41f161c7d87a34b2"),
            ("attack-backward-filter-mean-s42-6fb03f49", "6fb03f49cf9d8e31"),
            ("attack-backward-filter-mean-s43-edfaffe0", "edfaffe034aaec5c"),
            ("attack-backward-filter-mean-s44-b76fec7e", "b76fec7ea250c17b"),
        ],
    ),
    (
        "fig3.toml",
        &[
            ("epsilon-0-filter-trimmed-matched-s42-f9cc9cd7", "f9cc9cd74c14b491"),
            ("epsilon-0-filter-trimmed-matched-s43-d7806dda", "d7806dda29cf34bc"),
            ("epsilon-0-filter-trimmed-matched-s44-ce833174", "ce8331743785e3db"),
            ("epsilon-0-filter-mean-s42-0565afdc", "0565afdc63820d75"),
            ("epsilon-0-filter-mean-s43-04385a67", "04385a6717aa25a0"),
            ("epsilon-0-filter-mean-s44-4e702d43", "4e702d43c4e4d0a7"),
            ("epsilon-0-1-filter-trimmed-matched-s42-6d46f8ec", "6d46f8ecc2af8a9f"),
            ("epsilon-0-1-filter-trimmed-matched-s43-19667c37", "19667c37e6e9dea2"),
            ("epsilon-0-1-filter-trimmed-matched-s44-522496c0", "522496c08998a90d"),
            ("epsilon-0-1-filter-mean-s42-7db3737a", "7db3737a6ee306e2"),
            ("epsilon-0-1-filter-mean-s43-1ccaf176", "1ccaf176c53489df"),
            ("epsilon-0-1-filter-mean-s44-53102035", "53102035aa129458"),
            ("epsilon-0-2-filter-trimmed-matched-s42-8d436147", "8d436147b48f917f"),
            ("epsilon-0-2-filter-trimmed-matched-s43-a2ef31af", "a2ef31afd85d8482"),
            ("epsilon-0-2-filter-trimmed-matched-s44-4fa9c0ef", "4fa9c0efab9fb2ed"),
            ("epsilon-0-2-filter-mean-s42-ae9e3c4c", "ae9e3c4c10f3195f"),
            ("epsilon-0-2-filter-mean-s43-0f86be4f", "0f86be4fbaa19662"),
            ("epsilon-0-2-filter-mean-s44-cfef7200", "cfef720090914ecd"),
            ("epsilon-0-3-filter-trimmed-matched-s42-1dcfd5c3", "1dcfd5c3fae9fbff"),
            ("epsilon-0-3-filter-trimmed-matched-s43-337ba62c", "337ba62c1eb7ef02"),
            ("epsilon-0-3-filter-trimmed-matched-s44-e036356b", "e036356bf1fa1d6d"),
            ("epsilon-0-3-filter-mean-s42-f5209cc5", "f5209cc510f73cbc"),
            ("epsilon-0-3-filter-mean-s43-176ccbc2", "176ccbc2333cbc91"),
            ("epsilon-0-3-filter-mean-s44-553d619e", "553d619e1844c8ee"),
        ],
    ),
    (
        "fig5.toml",
        &[
            ("filter-trimmed-0-2-dirichlet-alpha-1-s42-7b724b50", "7b724b506f6f473b"),
            ("filter-trimmed-0-2-dirichlet-alpha-1-s43-6f3094c6", "6f3094c6f828db4e"),
            ("filter-trimmed-0-2-dirichlet-alpha-1-s44-cf97601a", "cf97601a94729ff1"),
            ("filter-trimmed-0-2-dirichlet-alpha-5-s42-d81ddc7f", "d81ddc7fc6b0188f"),
            ("filter-trimmed-0-2-dirichlet-alpha-5-s43-0f12417a", "0f12417a52a01a12"),
            ("filter-trimmed-0-2-dirichlet-alpha-5-s44-68599058", "685990584d88a5fd"),
            ("filter-trimmed-0-2-dirichlet-alpha-10-s42-8d436147", "8d436147b48f917f"),
            ("filter-trimmed-0-2-dirichlet-alpha-10-s43-a2ef31af", "a2ef31afd85d8482"),
            ("filter-trimmed-0-2-dirichlet-alpha-10-s44-4fa9c0ef", "4fa9c0efab9fb2ed"),
            ("filter-trimmed-0-2-dirichlet-alpha-1000-s42-b9e76100", "b9e761003a67352f"),
            ("filter-trimmed-0-2-dirichlet-alpha-1000-s43-19dc9ab8", "19dc9ab80c5c3d32"),
            ("filter-trimmed-0-2-dirichlet-alpha-1000-s44-2af77948", "2af77948ff193f9d"),
            ("filter-mean-dirichlet-alpha-1-s42-fccdcd74", "fccdcd7407a1362b"),
            ("filter-mean-dirichlet-alpha-1-s43-3bc0ea71", "3bc0ea716fa9407e"),
            ("filter-mean-dirichlet-alpha-1-s44-c7c15f43", "c7c15f43ac9de361"),
            ("filter-mean-dirichlet-alpha-5-s42-51e50639", "51e50639988fe18f"),
            ("filter-mean-dirichlet-alpha-5-s43-88d96b34", "88d96b34247fe312"),
            ("filter-mean-dirichlet-alpha-5-s44-e220ba12", "e220ba121f686efd"),
            ("filter-mean-dirichlet-alpha-10-s42-ae9e3c4c", "ae9e3c4c10f3195f"),
            ("filter-mean-dirichlet-alpha-10-s43-0f86be4f", "0f86be4fbaa19662"),
            ("filter-mean-dirichlet-alpha-10-s44-cfef7200", "cfef720090914ecd"),
            ("filter-mean-dirichlet-alpha-1000-s42-347df6bc", "347df6bc1d1138ef"),
            ("filter-mean-dirichlet-alpha-1000-s43-ad4b3800", "ad4b3800d71825f2"),
            ("filter-mean-dirichlet-alpha-1000-s44-2bb0e38e", "2bb0e38e45ae0f5d"),
        ],
    ),
    (
        "scale.toml",
        &[
            ("cohort-256-attack-benign-s42-7519f96f", "7519f96f36a4a9fb"),
            ("cohort-256-attack-noise-s42-a5958d6b", "a5958d6b66da318c"),
            ("cohort-1024-attack-benign-s42-d5d3361b", "d5d3361bede7e8fb"),
            ("cohort-1024-attack-noise-s42-03da90e1", "03da90e144a4710e"),
        ],
    ),
    (
        "smoke.toml",
        &[
            ("filter-trimmed-0-25-s7-7cb77b64", "7cb77b6454727474"),
            ("filter-mean-s7-2cf3ce5a", "2cf3ce5a0b0b43b7"),
        ],
    ),
    (
        "stealth.toml",
        &[
            ("attack-alie-1-filter-trimmed-0-2-s42-836d7f98", "836d7f98431d875d"),
            ("attack-alie-1-filter-trimmed-0-2-s43-7fd73c29", "7fd73c29ed416d68"),
            ("attack-alie-1-filter-trimmed-0-2-s44-8c3a92c6", "8c3a92c61a80b0ef"),
            ("attack-alie-1-filter-median-s42-88b86c06", "88b86c06ef5442dc"),
            ("attack-alie-1-filter-median-s43-0a6dab70", "0a6dab708a46e4b1"),
            ("attack-alie-1-filter-median-s44-894ae61b", "894ae61b52c3230e"),
            ("attack-alie-1-filter-mean-s42-92b38634", "92b38634e34b7dbd"),
            ("attack-alie-1-filter-mean-s43-ef3da269", "ef3da269ea2eb948"),
            ("attack-alie-1-filter-mean-s44-6372841b", "6372841b30989c4f"),
            ("attack-alie-4-filter-trimmed-0-2-s42-09ff32c2", "09ff32c2323473dc"),
            ("attack-alie-4-filter-trimmed-0-2-s43-8bb4722b", "8bb4722bcd2715b1"),
            ("attack-alie-4-filter-trimmed-0-2-s44-0a91acd6", "0a91acd695a3540e"),
            ("attack-alie-4-filter-median-s42-a6939813", "a693981322578f55"),
            ("attack-alie-4-filter-median-s43-6bca90da", "6bca90da64aeb580"),
            ("attack-alie-4-filter-median-s44-15a07271", "15a072715c03d907"),
            ("attack-alie-4-filter-mean-s42-a69d87ad", "a69d87ad5fcdcb5c"),
            ("attack-alie-4-filter-mean-s43-2852c716", "2852c716fac06d31"),
            ("attack-alie-4-filter-mean-s44-a73001c1", "a73001c1c33cab8e"),
            ("attack-ipm-0-5-filter-trimmed-0-2-s42-e5e3ecab", "e5e3ecab8400087c"),
            ("attack-ipm-0-5-filter-trimmed-0-2-s43-8fde8ec5", "8fde8ec5f337ce51"),
            ("attack-ipm-0-5-filter-trimmed-0-2-s44-882d2042", "882d20424b1ddaae"),
            ("attack-ipm-0-5-filter-median-s42-2f7a2ae8", "2f7a2ae821caceb5"),
            ("attack-ipm-0-5-filter-median-s43-6c9f1c44", "6c9f1c440a9d23e0"),
            ("attack-ipm-0-5-filter-median-s44-ce01dd67", "ce01dd67b2e77fe7"),
            ("attack-ipm-0-5-filter-mean-s42-47edc1e7", "47edc1e7dddfb93c"),
            ("attack-ipm-0-5-filter-mean-s43-6a39f0e5", "6a39f0e500253911"),
            ("attack-ipm-0-5-filter-mean-s44-a80a86c0", "a80a86c0e52d456e"),
            ("attack-ipm-2-filter-trimmed-0-2-s42-315a37eb", "315a37ebb322d0f5"),
            ("attack-ipm-2-filter-trimmed-0-2-s43-302ce276", "302ce276674ae920"),
            ("attack-ipm-2-filter-trimmed-0-2-s44-7a64b553", "7a64b55314859427"),
            ("attack-ipm-2-filter-median-s42-305e6023", "305e60237ae49704"),
            ("attack-ipm-2-filter-median-s43-6aaae5b5", "6aaae5b528af3599"),
            ("attack-ipm-2-filter-median-s44-5a3f967c", "5a3f967c8a7540f6"),
            ("attack-ipm-2-filter-mean-s42-7bef619a", "7bef619ae096d3f5"),
            ("attack-ipm-2-filter-mean-s43-7ac20c25", "7ac20c2594beec20"),
            ("attack-ipm-2-filter-mean-s44-c4f9df02", "c4f9df0241f99727"),
            ("attack-random-filter-trimmed-0-2-s42-66b20bdc", "66b20bdccdc1cdab"),
            ("attack-random-filter-trimmed-0-2-s43-a5a528da", "a5a528da35c9d7fe"),
            ("attack-random-filter-trimmed-0-2-s44-31a59dac", "31a59dac72be7ae1"),
            ("attack-random-filter-median-s42-28f8685e", "28f8685eada072aa"),
            ("attack-random-filter-median-s43-15ddfa40", "15ddfa40ec41ae27"),
            ("attack-random-filter-median-s44-cba62764", "cba627643f070320"),
            ("attack-random-filter-mean-s42-d42befa3", "d42befa385528fbb"),
            ("attack-random-filter-mean-s43-c7ea391a", "c7ea391a0e0c23ce"),
            ("attack-random-filter-mean-s44-2851046d", "2851046daa55e871"),
        ],
    ),
    (
        "threat.toml",
        &[
            ("estimate-b-false-s42-048644ba", "048644ba7e8bfe31"),
            ("estimate-b-true-s42-88a5c3e6", "88a5c3e6d4fb6374"),
        ],
    ),
    (
        "worstcase.toml",
        &[
            ("attack-random-equivocate-false-s42-66b20bdc", "66b20bdccdc1cdab"),
            ("attack-random-equivocate-false-s43-a5a528da", "a5a528da35c9d7fe"),
            ("attack-random-equivocate-false-s44-31a59dac", "31a59dac72be7ae1"),
            ("attack-random-equivocate-true-s42-6c836808", "6c836808dc66b3c6"),
            ("attack-random-equivocate-true-s43-c04a9db3", "c04a9db3f754b733"),
            ("attack-random-equivocate-true-s44-ea89b561", "ea89b56118495a54"),
            ("attack-noise-equivocate-false-s42-8d436147", "8d436147b48f917f"),
            ("attack-noise-equivocate-false-s43-a2ef31af", "a2ef31afd85d8482"),
            ("attack-noise-equivocate-false-s44-4fa9c0ef", "4fa9c0efab9fb2ed"),
            ("attack-noise-equivocate-true-s42-3b25834e", "3b25834e5d093f02"),
            ("attack-noise-equivocate-true-s43-2579b2e6", "2579b2e6393b4bff"),
            ("attack-noise-equivocate-true-s44-216179fe", "216179feadba4578"),
        ],
    ),
];

/// `fedms run <tiny.json> --rounds 1 <flags>` → the `config=` hash its
/// banner prints. The JSON is `FedMsConfig::tiny(42)`.
const RUN_PINS: &[(&[&str], &str)] = &[
    (&[], "64691fe6a713e2e0"),
    (
        &[
            "--crash",
            "1",
            "--crash-round",
            "1",
            "--stragglers",
            "1",
            "--straggler-delay",
            "2",
            "--downlink-omission",
            "0.05",
            "--duplicate-rate",
            "0.1",
        ],
        "6768bcc86a0384d3",
    ),
    (
        &[
            "--retry-budget",
            "4",
            "--attempt-timeout",
            "40",
            "--backoff-base",
            "5",
            "--failover",
            "--proceed-degraded",
        ],
        "6f298fa565f2c988",
    ),
    (&["--transport", "net", "--net-profile", "edge"], "43fb59c607e1c943"),
    // A straggler count alone implies a one-round delay.
    (&["--stragglers", "1"], "73c4ed14405b9eb4"),
    (&["--backend", "scalar"], "64691fe6a713e2e0"),
    (
        &["--threat-schedule", "0..: compromise=1, attack=noise:2", "--estimate-b"],
        "cd741e23f7a2b6b7",
    ),
    (&["--seed", "9"], "b8a61f9a23c92d51"),
];

fn experiments() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("experiments")
}

#[test]
fn checked_in_specs_keep_trial_ids_and_config_hashes() {
    let mut files: Vec<String> = std::fs::read_dir(experiments())
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .filter(|name| name.ends_with(".toml"))
        .collect();
    files.sort();
    let pinned: Vec<&str> = SPEC_PINS.iter().map(|(file, _)| *file).collect();
    assert_eq!(pinned, files, "every experiments/*.toml is pinned");
    for (file, want) in SPEC_PINS {
        let source = std::fs::read_to_string(experiments().join(file)).unwrap();
        let trials = SweepSpec::parse(&source).unwrap().expand().unwrap();
        let got: Vec<(&str, &str)> =
            trials.iter().map(|t| (t.id.as_str(), t.config_hash.as_str())).collect();
        assert_eq!(got, *want, "{file}");
    }
    let total: usize = SPEC_PINS.iter().map(|(_, pins)| pins.len()).sum();
    assert_eq!(total, 224);
}

#[test]
fn run_flag_groups_resolve_to_pinned_config_hashes() {
    let cfg_path =
        std::env::temp_dir().join(format!("fedms-config-identity-{}.json", std::process::id()));
    std::fs::write(&cfg_path, serde_json::to_string(&FedMsConfig::tiny(42)).unwrap()).unwrap();
    for (flags, want) in RUN_PINS {
        let out = Command::new(env!("CARGO_BIN_EXE_fedms"))
            .args(["run", cfg_path.to_str().unwrap(), "--rounds", "1"])
            .args(*flags)
            .output()
            .expect("binary runs");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(out.status.success(), "{flags:?}: {}", String::from_utf8_lossy(&out.stderr));
        let banner = stdout.lines().find(|l| l.starts_with("fed-ms run:")).unwrap_or_default();
        assert!(banner.ends_with(&format!(" config={want}")), "{flags:?}: {banner:?}");
    }
    let _ = std::fs::remove_file(&cfg_path);
}
