//! Simulator pins: every kernel × preset at `Scale::Tiny`, seed 1, on
//! the 4×4 fabric, plus two faulted points, pinned as two FNV-1a
//! digests each — one of the full `RunStats` debug print (every per-PE,
//! per-group and per-route counter) and one of the traced run's Chrome
//! trace JSON (the cycle-level event schedule).
//!
//! `BENCH_sim.json` pins only cycles and fires; these digests also pin
//! per-route stalls, mesh hops, group activity, PE busy counts and the
//! exact trace, so a refactor of the cycle loop that moves any counter
//! or reorders any event fails here at a named point.
//!
//! Two more tables pin raw (unhealed) simulator outcomes: four fault
//! sets on every preset, digesting either the typed error or the whole
//! result (stats, memory, out-of-bounds count, sinks), and the typed
//! cycle-budget bust.

use marionette::arch::{all_presets, marionette_full, Architecture};
use marionette::compiler::compile;
use marionette::kernels::traits::{Kernel, Scale};
use marionette::runner::{run_kernel_with, DEFAULT_MAX_CYCLES};
use marionette::sim::{
    run_full, trace, EngineKind, FaultSet, RunResult, RunSpec, SimError, Tracer,
};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a continued from state `h` over `bytes`.
fn fnv(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// `(stats digest, trace digest, trace JSON)` of `kernel` on `arch` with
/// `faults` injected: one untraced run for the stats, one traced run for
/// the trace.
fn digests(kernel: &dyn Kernel, arch: &Architecture, faults: &[&str]) -> (u64, u64, String) {
    let mut set = FaultSet::new(arch.opts.rows, arch.opts.cols);
    for f in faults {
        set.add(f.parse().expect("fault spec")).expect("in range");
    }
    let what = format!("{} on {} {faults:?}", kernel.short(), arch.short);
    let mut spec = RunSpec {
        faults: &set,
        ..RunSpec::new(DEFAULT_MAX_CYCLES)
    };
    let run = run_kernel_with(kernel, arch, Scale::Tiny, 1, &mut spec)
        .unwrap_or_else(|e| panic!("{what}: {e}"));
    let mut tracer = Tracer::new();
    let mut spec = RunSpec {
        faults: &set,
        tracer: Some(&mut tracer),
        ..RunSpec::new(DEFAULT_MAX_CYCLES)
    };
    run_kernel_with(kernel, arch, Scale::Tiny, 1, &mut spec)
        .unwrap_or_else(|e| panic!("{what} (traced): {e}"));
    let json = tracer.to_chrome_json();
    let stats = fnv(FNV_OFFSET, format!("{:?}", run.run.stats).as_bytes());
    (stats, fnv(FNV_OFFSET, json.as_bytes()), json)
}

fn check(point: &str, got: (u64, u64), want: (u64, u64)) {
    assert_eq!(
        got, want,
        "first differing point: {point}: (stats, trace) digests {got:#018x?}, pinned {want:#018x?}"
    );
}

#[test]
fn every_kernel_on_every_preset_is_pinned() {
    let mut kernels = marionette::kernels::all();
    kernels.push(marionette::kernels::ldpc_app());
    let mut pins = PINS.iter();
    for k in &kernels {
        for arch in all_presets() {
            let (stats, trace, _) = digests(k.as_ref(), &arch, &[]);
            let &(kt, at, ps, pt) = pins.next().expect("a pin per point");
            assert_eq!((kt, at), (k.short(), arch.short), "pin table order");
            check(&format!("{kt} on {at}"), (stats, trace), (ps, pt));
        }
    }
    assert!(pins.next().is_none(), "stale pins past the last point");
}

/// A flaky link that stretches some route's final hop and parks that
/// route's flits at a full destination queue, and a dead PE the runner
/// heals by remap (the trace carries the remap mark).
#[test]
fn faulted_runs_are_pinned() {
    let m = marionette::arch::marionette_full();
    for &(tag, fault, ps, pt) in FAULTED_PINS {
        let k = marionette::kernels::by_short(tag).expect("kernel tag");
        let (stats, trace, json) = digests(k.as_ref(), &m, &[fault]);
        let parsed = trace::parse(&json).expect("trace parses");
        let names = |needle: &'static str| {
            parsed
                .events
                .iter()
                .filter(move |e| e.name.starts_with(needle))
        };
        if fault.starts_with("flaky:") {
            // The route parked at its destination and its final (flaky)
            // hop was granted a stretched traversal on the same link.
            let stretched = names("park ").any(|p| {
                let grant = p.name.replacen("park", "grant", 1);
                names("grant ").any(|g| g.track == p.track && g.name == grant && g.dur > 1)
            });
            assert!(
                stretched,
                "{tag} [{fault}]: no stretched final hop that parks"
            );
        } else {
            assert!(
                names("remap after ").next().is_some(),
                "{tag} [{fault}]: no remap mark"
            );
        }
        check(&format!("{tag} on M [{fault}]"), (stats, trace), (ps, pt));
    }
}

/// Digest of a whole run outcome: the typed error, or the stats, every
/// array's bits, the out-of-bounds count and the sinks sorted by label.
fn outcome_digest(run: &Result<RunResult, SimError>) -> u64 {
    let r = match run {
        Err(e) => return fnv(FNV_OFFSET, format!("{e:?}").as_bytes()),
        Ok(r) => r,
    };
    let mut h = fnv(FNV_OFFSET, format!("{:?}", r.stats).as_bytes());
    for array in &r.memory {
        let bits: Vec<_> = array.iter().map(|v| v.to_bits()).collect();
        h = fnv(h, format!("{bits:?}").as_bytes());
    }
    h = fnv(h, &r.oob_events.to_le_bytes());
    let mut labels: Vec<&String> = r.sinks.keys().collect();
    labels.sort();
    for label in labels {
        let bits: Vec<_> = r.sinks[label].iter().map(|v| v.to_bits()).collect();
        h = fnv(h, format!("{label}={bits:?}").as_bytes());
    }
    h
}

/// Raw simulator outcomes under one injected fault, with no self-heal:
/// `kernel` at `Scale::Tiny`, seed 7, on every preset, checked against
/// that fault's rows of [`FAULT_OUTCOME_PINS`] in preset order.
fn check_fault_outcomes(tag: &str, fault: &str) {
    let mut pins = FAULT_OUTCOME_PINS
        .iter()
        .filter(|&&(kt, _, ft, _)| kt == tag && ft == fault);
    let k = marionette::kernels::by_short(tag).expect("kernel tag");
    let g = k.build(&k.workload(Scale::Tiny, 7)).expect("kernel builds");
    let inputs = g.array_inputs();
    for arch in all_presets() {
        let mut faults = FaultSet::new(arch.opts.rows, arch.opts.cols);
        faults
            .add(fault.parse().expect("fault spec"))
            .expect("in range");
        let (prog, _) = compile(&g, &arch.opts)
            .unwrap_or_else(|e| panic!("{tag} on {}: compile: {e}", arch.short));
        let run = run_full(
            &prog,
            &arch.tm,
            &faults,
            EngineKind::default(),
            &inputs,
            &[],
            DEFAULT_MAX_CYCLES,
        );
        let &(_, at, _, want) = pins.next().expect("a pin per preset");
        assert_eq!(at, arch.short, "pin table order for {tag} [{fault}]");
        let got = outcome_digest(&run);
        assert_eq!(
            got, want,
            "first differing point: {tag} on {} [{fault}]: outcome digest {got:#018x}, pinned {want:#018x}",
            arch.short
        );
    }
    assert!(pins.next().is_none(), "stale pins past the last preset");
}

/// A dead PE wedges with a typed [`SimError::Fault`] where the mapping
/// touches it.
#[test]
fn dead_pe_outcomes_are_pinned() {
    check_fault_outcomes("CRC", "pe:0,0");
}

/// A dead link wedges with a typed [`SimError::Fault`] where a route
/// crosses it.
#[test]
fn dead_link_outcomes_are_pinned() {
    check_fault_outcomes("MS", "link:0,0-0,1");
}

/// A flaky link (x2) stretches the run without changing a value.
#[test]
fn flaky_link_mult2_outcomes_are_pinned() {
    check_fault_outcomes("CRC", "flaky:0,0-0,1@2");
}

/// A flaky link (x7) stretches the run without changing a value.
#[test]
fn flaky_link_mult7_outcomes_are_pinned() {
    check_fault_outcomes("GP", "flaky:1,0-1,1@7");
}

/// A busted cycle budget is exactly the typed [`SimError::CycleLimit`].
#[test]
fn cycle_budget_busts_are_typed() {
    let k = marionette::kernels::by_short("CRC").expect("kernel tag");
    let g = k.build(&k.workload(Scale::Tiny, 7)).expect("kernel builds");
    let inputs = g.array_inputs();
    let arch = marionette_full();
    let (prog, _) = compile(&g, &arch.opts).expect("compiles");
    for limit in [1u64, 16, 100] {
        let run = run_full(
            &prog,
            &arch.tm,
            &FaultSet::none(),
            EngineKind::default(),
            &inputs,
            &[],
            limit,
        );
        assert_eq!(
            run.err(),
            Some(SimError::CycleLimit { limit }),
            "budget {limit}"
        );
    }
}

/// `(kernel, fault, stats digest, trace digest)` on the M preset.
const FAULTED_PINS: &[(&str, &str, u64, u64)] = &[
    (
        "FFT",
        "flaky:0,3-1,3@3",
        0xabf7a821e37ca86b,
        0xed160886424a1811,
    ),
    ("CRC", "pe:0,0", 0x712a36074f7e51b2, 0xbb125e8e037a0537),
];

/// `(kernel, preset, stats digest, trace digest)` in sweep order.
const PINS: &[(&str, &str, u64, u64)] = &[
    ("MS", "vN", 0x1928a00b0505477d, 0xc3b5366c61970018),
    ("MS", "DF", 0x2f5ec987e4647f73, 0x56fc7bd7dcb66e1a),
    ("MS", "M-PE", 0x355b4f530d4dc168, 0x769828c81e1deb74),
    ("MS", "M-CN", 0xe1175743a4d5c21f, 0x22a9a24f38520367),
    ("MS", "M", 0x72c4b8b30f179246, 0x6c660a50fac391fc),
    ("MS", "SB", 0xe3bbf7c3580a7057, 0x5b550ae017b39056),
    ("MS", "TIA", 0x5b105814810477f9, 0x921b7f38d717b115),
    ("MS", "RV", 0xc27050bb7e10afdf, 0xd74fcfa476905285),
    ("MS", "RT", 0x8eb97426efc22de9, 0xba2bddab0a8b503e),
    ("FFT", "vN", 0x9f70f4ab9e083fdc, 0xbd82d78d7c4c528f),
    ("FFT", "DF", 0x8cdcaf6568aef513, 0xee21ba80421b8f8c),
    ("FFT", "M-PE", 0xe22f0d8beebb11cb, 0xb47b4b3b3ee9dedd),
    ("FFT", "M-CN", 0x6bdf08be26b41a47, 0xaf6f2625b9138286),
    ("FFT", "M", 0x69e2693a3e428459, 0x4287c84b8fa5e661),
    ("FFT", "SB", 0x22b22754160da1c9, 0xb0da45d18279fc7d),
    ("FFT", "TIA", 0x86ebde3220512a8a, 0xd3e29cdfa801227f),
    ("FFT", "RV", 0xe2764fbfa3470f8a, 0x40600c26b2af12ed),
    ("FFT", "RT", 0x03cd95e29d383e4d, 0x519233c5f9720619),
    ("VI", "vN", 0x3d17738a9dc4e8a4, 0xfb1279ddfc983104),
    ("VI", "DF", 0x149fbe59a9495f61, 0x2aeb9c471eedd9b8),
    ("VI", "M-PE", 0xdf52bd3d33f22b2d, 0xbe5a32b8596bd4c5),
    ("VI", "M-CN", 0x0e7916bb3366e20a, 0x389e237a80569ad6),
    ("VI", "M", 0x073f47d7725cdc30, 0x29721da87e8b23f3),
    ("VI", "SB", 0x86d6c0eff8b7bb8d, 0xe93084adccb5b7e4),
    ("VI", "TIA", 0xd67acecb4900b92b, 0xef2461e8dc5d8f9d),
    ("VI", "RV", 0x7e9e4ecd7dcc41e1, 0x94cdcc79b0726e14),
    ("VI", "RT", 0x20b5161865a9c329, 0xdd66dbac573790e6),
    ("NW", "vN", 0x8b19c04c8ea88fd8, 0x0e5d41412e3ba415),
    ("NW", "DF", 0xbe889c9a72e9f841, 0x85ae5e6aca36a34a),
    ("NW", "M-PE", 0x93c1c2c7430cff89, 0xc628e2f8dc217a3e),
    ("NW", "M-CN", 0xda1c1e5da3778b29, 0x4c41ffd7d9ead519),
    ("NW", "M", 0xe780a1d28edcb73f, 0xf8f765e2d24a0534),
    ("NW", "SB", 0x09d6fb2225916b80, 0x2682a60e52c7b1f3),
    ("NW", "TIA", 0xf56f4db047a626dd, 0x1fa4536c2edf3326),
    ("NW", "RV", 0x15658804042525b2, 0x14583bcd4e19fcee),
    ("NW", "RT", 0x0a5ed1f6ae8f7f04, 0x0f34c2b38a373b99),
    ("HT", "vN", 0x84c3923f5023f354, 0x3e82c4d44d30faf9),
    ("HT", "DF", 0x2e1c6470172fb67a, 0x8767888c003b77d2),
    ("HT", "M-PE", 0x63d2318a53bd83da, 0xae9cfabaafef80b4),
    ("HT", "M-CN", 0x8aa205003f811743, 0x7034c2bcaf689a88),
    ("HT", "M", 0xa20312b74125701d, 0x438436c4b76f12cb),
    ("HT", "SB", 0x55762192bf2a8b8b, 0x1b88f7d8cbc362eb),
    ("HT", "TIA", 0x20809052c67cf066, 0xcc0c3143a220f62e),
    ("HT", "RV", 0x7476231a4c3d0514, 0x57ac3733005cd4d7),
    ("HT", "RT", 0x3d23113382d6b472, 0x154744b308b553ff),
    ("CRC", "vN", 0x565862fc04d92cd1, 0x1d714c3606191d39),
    ("CRC", "DF", 0x0b282f4e465ae224, 0xd968401d898a489a),
    ("CRC", "M-PE", 0xa71abf9093693e9c, 0xca45610a30ee3dfd),
    ("CRC", "M-CN", 0x225e0498f4badd77, 0xee2e7f01222aa2e7),
    ("CRC", "M", 0xd1d065ecd4962568, 0x48c47394403428ff),
    ("CRC", "SB", 0x98e9812403928642, 0xee4e01ec81abe8df),
    ("CRC", "TIA", 0xd2b1061d5bd6a18a, 0x099d157fd55ea7c1),
    ("CRC", "RV", 0xde86d28e299a4541, 0xd4c2c419aa41b0f3),
    ("CRC", "RT", 0x45cca7c9a3e4beac, 0x78142497c4bd7fba),
    ("ADPCM", "vN", 0x7f3130f7b8fa25c9, 0xfed522066f8eb8b3),
    ("ADPCM", "DF", 0x690082f24bc975e2, 0x77ca9e23005177dc),
    ("ADPCM", "M-PE", 0xbccf3ad1e5b538a0, 0x2061c4e7817c80f2),
    ("ADPCM", "M-CN", 0x28cb0a69cbd14da4, 0x04e63a4b4a9ec9f5),
    ("ADPCM", "M", 0x355a1f59b227ff88, 0x6ed0ce29aa97bdfb),
    ("ADPCM", "SB", 0x376d457555e2a885, 0xa384403d0cf60f04),
    ("ADPCM", "TIA", 0x971006fd39210390, 0x2defbe5c4fd05bf5),
    ("ADPCM", "RV", 0xf97a964e42e72f12, 0xf280a4c8175205d1),
    ("ADPCM", "RT", 0xac0fcfc97205a29e, 0xe9e93d4f54a7dd09),
    ("SCD", "vN", 0x1101be5d0fb111f9, 0x170361263c0e97bc),
    ("SCD", "DF", 0xa4d88d549045d8fe, 0x8bc349a066e852e1),
    ("SCD", "M-PE", 0x8717334bb776b07b, 0x154c012d5883e823),
    ("SCD", "M-CN", 0x0654a3d69f9331e0, 0x9ec8a515131364f5),
    ("SCD", "M", 0x2db2642ddea4e7ed, 0x1312916ce32a161e),
    ("SCD", "SB", 0x5d3021446fe22710, 0x941f28c6057e24c3),
    ("SCD", "TIA", 0xb750d5fff116a7d3, 0x8d5006bb5ed76541),
    ("SCD", "RV", 0x80ba3ddc00a5f682, 0xde737e9f238a6cff),
    ("SCD", "RT", 0xe5d878fd1ba8d516, 0x6e446c677821f870),
    ("LDPC", "vN", 0xc0f32a8d56c8760d, 0xbc25268a8b1fd737),
    ("LDPC", "DF", 0xc23e47704636670c, 0xb2516d530d78ac6d),
    ("LDPC", "M-PE", 0x034abf4371e06226, 0x5361c1c3f7771321),
    ("LDPC", "M-CN", 0x1098352573461898, 0x9006496bff6310c7),
    ("LDPC", "M", 0xe522601df813b78c, 0xcce425d98d22b943),
    ("LDPC", "SB", 0xd445b0fdf86fe1a1, 0xf56f91620414f640),
    ("LDPC", "TIA", 0x1ca6ea5aee4a07ee, 0x9018ae98202fb02c),
    ("LDPC", "RV", 0x3ba26bd10b4605e7, 0x5634b02dda1b719b),
    ("LDPC", "RT", 0x1642a1a7ec4df052, 0x4f2ba6534556f1cf),
    ("GEMM", "vN", 0x1557450fa29701c9, 0x89c5dc5087931b92),
    ("GEMM", "DF", 0xde7591ffd540edeb, 0x66ebac1541f0ab35),
    ("GEMM", "M-PE", 0x9e275af92d256e12, 0xd64b1ef7aadd6a28),
    ("GEMM", "M-CN", 0xf2e4b2b0c13ed9b8, 0x7e8329383ae1e53d),
    ("GEMM", "M", 0x32948c16c624f771, 0x71fe3b6f31aec219),
    ("GEMM", "SB", 0x5f1cdbf49dce6756, 0x2efd712cb504ae00),
    ("GEMM", "TIA", 0xf6c3a13d0e142670, 0xaf27d5040ab44a1d),
    ("GEMM", "RV", 0xb825a6a0dcbcf319, 0x6ce407d60f0d474b),
    ("GEMM", "RT", 0x441d20f032a91bca, 0xffa371fb87c9f398),
    ("CO", "vN", 0x97b9fceeac85fc2e, 0xccd6350790aaf1fc),
    ("CO", "DF", 0xb369adfc144f4fe3, 0x2b730a426e17103b),
    ("CO", "M-PE", 0x14d6561cd09d5585, 0x7ad44744b754cd1b),
    ("CO", "M-CN", 0x7a44a79f13e144ea, 0xbe28500a39906aad),
    ("CO", "M", 0x87a1cc40250622c7, 0x137598823ad03d5f),
    ("CO", "SB", 0xe444d147e45cf885, 0xcc1c6700293aedeb),
    ("CO", "TIA", 0xb9918d6d4eba9f6c, 0x8efeac87d94c87f6),
    ("CO", "RV", 0xa7624dd33a6b26b4, 0xa8198bf53830747f),
    ("CO", "RT", 0x4d60b187bb67b113, 0x561d080f55a2fdea),
    ("SI", "vN", 0x7ac90924a8319cb5, 0x17a34f01be36d053),
    ("SI", "DF", 0x7bebb2a89ee245af, 0xd656f5da565c2b40),
    ("SI", "M-PE", 0x66aa09e04e3f54ba, 0x2cc2590ecd0db700),
    ("SI", "M-CN", 0xad275f69e578cc82, 0xe6c12b813f5994b5),
    ("SI", "M", 0x84a95f714a766ccd, 0x57843fb5b0531496),
    ("SI", "SB", 0xdccc30f4170dcaee, 0x37dc4709e6e43b3c),
    ("SI", "TIA", 0x355dd770b92a6ecd, 0xd6a5bf3cf0f732c0),
    ("SI", "RV", 0xca9b9a2b3b7e84a4, 0x53420fcdb4d526aa),
    ("SI", "RT", 0xfb719ef5f627270b, 0x601520fcab801594),
    ("GP", "vN", 0x9a8ca72f4732553f, 0xe09e216601a0a78c),
    ("GP", "DF", 0x813b358538555e40, 0x20e9da01d72c0096),
    ("GP", "M-PE", 0x9207695577a4db24, 0x80e986cfdc3c5704),
    ("GP", "M-CN", 0x263276836e589a67, 0x72ae84f8c55a8df7),
    ("GP", "M", 0xf288a7c8d582fbfa, 0x4f1f2e9adbaa7d09),
    ("GP", "SB", 0x7ad65b976b7ee2d4, 0x65d81dc5db600ad9),
    ("GP", "TIA", 0x55bce7157f0fe88e, 0xb1a062041837881a),
    ("GP", "RV", 0x4607fac6377d8a86, 0xd537fd7477ba3fbc),
    ("GP", "RT", 0xb04fc23b7573b21e, 0x6ca00ad01938e39c),
    ("LDPC-APP", "vN", 0x5af6bb932c7e75ad, 0x18be3b8c2df5627b),
    ("LDPC-APP", "DF", 0x8888da94700e7a8b, 0x25f0d913c4f5dd74),
    ("LDPC-APP", "M-PE", 0x19c3a8a2ee6573ec, 0xb9fb3e5a2014106a),
    ("LDPC-APP", "M-CN", 0x9fe2be5cc1380f62, 0x532ece4b4b5dabb1),
    ("LDPC-APP", "M", 0x768bf972b577c482, 0xd48650f2727cd2cb),
    ("LDPC-APP", "SB", 0xd13fbf09452e8b22, 0xb1950521773d8fe1),
    ("LDPC-APP", "TIA", 0xde39572607617104, 0x8f4035affe9a0109),
    ("LDPC-APP", "RV", 0xcd70971b00c2e6ef, 0xab48cd47dc7d66a3),
    ("LDPC-APP", "RT", 0xff0e8efbb9562d0d, 0x731085b275f454af),
];

/// `(kernel, preset, fault, outcome digest)`, each fault's rows in preset
/// order.
const FAULT_OUTCOME_PINS: &[(&str, &str, &str, u64)] = &[
    ("CRC", "vN", "pe:0,0", 0x15b1b600fbc7b6af),
    ("CRC", "DF", "pe:0,0", 0x15b1b600fbc7b6af),
    ("CRC", "M-PE", "pe:0,0", 0x15b1b600fbc7b6af),
    ("CRC", "M-CN", "pe:0,0", 0x15b1b600fbc7b6af),
    ("CRC", "M", "pe:0,0", 0x15b1b600fbc7b6af),
    ("CRC", "SB", "pe:0,0", 0x15b1b600fbc7b6af),
    ("CRC", "TIA", "pe:0,0", 0x15b1b600fbc7b6af),
    ("CRC", "RV", "pe:0,0", 0x15b1b600fbc7b6af),
    ("CRC", "RT", "pe:0,0", 0x15b1b600fbc7b6af),
    ("MS", "vN", "link:0,0-0,1", 0x094f0b59621c4d36),
    ("MS", "DF", "link:0,0-0,1", 0x094f0b59621c4d36),
    ("MS", "M-PE", "link:0,0-0,1", 0x504221a11caf8347),
    ("MS", "M-CN", "link:0,0-0,1", 0x849b6775bfa26efc),
    ("MS", "M", "link:0,0-0,1", 0x4962edd0a0ce7e64),
    ("MS", "SB", "link:0,0-0,1", 0x094f0b59621c4d36),
    ("MS", "TIA", "link:0,0-0,1", 0x094f0b59621c4d36),
    ("MS", "RV", "link:0,0-0,1", 0xcbb6e8ee71579a75),
    ("MS", "RT", "link:0,0-0,1", 0x504221a11caf8347),
    ("CRC", "vN", "flaky:0,0-0,1@2", 0x9445354f8e8aaa00),
    ("CRC", "DF", "flaky:0,0-0,1@2", 0x2b418f992b1b6e9f),
    ("CRC", "M-PE", "flaky:0,0-0,1@2", 0xc834fee1363a1cd7),
    ("CRC", "M-CN", "flaky:0,0-0,1@2", 0x98d3eabf79c5e763),
    ("CRC", "M", "flaky:0,0-0,1@2", 0x659333ec57e100cf),
    ("CRC", "SB", "flaky:0,0-0,1@2", 0x84b895036952dc30),
    ("CRC", "TIA", "flaky:0,0-0,1@2", 0xbc00d3b26674de6a),
    ("CRC", "RV", "flaky:0,0-0,1@2", 0x79e641f746361ea5),
    ("CRC", "RT", "flaky:0,0-0,1@2", 0x1aefb19fb3698560),
    ("GP", "vN", "flaky:1,0-1,1@7", 0x49920f4a53af408b),
    ("GP", "DF", "flaky:1,0-1,1@7", 0xff377d91d4a61c26),
    ("GP", "M-PE", "flaky:1,0-1,1@7", 0xa8d63146768352e9),
    ("GP", "M-CN", "flaky:1,0-1,1@7", 0x8bdb0b5cb53e4034),
    ("GP", "M", "flaky:1,0-1,1@7", 0xcb59ae3a831447b0),
    ("GP", "SB", "flaky:1,0-1,1@7", 0x5ee742697f3f3b9a),
    ("GP", "TIA", "flaky:1,0-1,1@7", 0x6a4d5c79a243a2d4),
    ("GP", "RV", "flaky:1,0-1,1@7", 0x89bf30ce6ad7b83c),
    ("GP", "RT", "flaky:1,0-1,1@7", 0x422c6c0433ca1064),
];
