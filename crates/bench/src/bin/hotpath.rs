//! Hot-path kernel timings: DPF expansion and the `dpXOR` scan, measured
//! against each other and against the host's memory-bandwidth roofline.
//!
//! The expansion of a DPF key over the full domain and the selector-driven
//! XOR scan bound every backend's throughput (paper §3.2), so this bin
//! measures five things:
//!
//! * **self-check** — every registered [`impir_core::dpxor::ScanKernel`]
//!   is replayed against the scalar oracle across record sizes (including
//!   odd ones) and selector densities, for one selector and for fused
//!   multi-selector scans; any divergence exits with code 3 before a
//!   single timing is reported.
//! * **expand** — the original per-level allocating expansion
//!   ([`impir_dpf::eval::expand_subtree_reference`]) against the
//!   zero-allocation `expand_level_into`/`EvalScratch` pipeline
//!   ([`impir_dpf::eval::expand_subtree_into`]).
//! * **scan old vs new** — the previous single-u64 wide path
//!   ([`impir_core::dpxor::xor_select_wide`]) against the runtime-dispatched
//!   kernel ([`impir_core::dpxor::best_kernel`]); on a ≥2^18 domain the
//!   dispatched kernel must be ≥1.2× faster or the bin exits with code 2.
//! * **kernel shootout + throughput sweep** — scan GB/s for every kernel
//!   and for the dispatched choice, across record sizes (32/40 and the odd
//!   33, which exercises the word+tail path) and selector densities
//!   (sparse/half/full).
//! * **fused wave** — per-query scan seconds of one
//!   [`impir_core::server::cpu::CpuPirServer`] pass serving `k` ∈ {1, 2,
//!   4, 8, 16} queries: the pass reads the database once for the whole
//!   wave, so the per-query cost falls as `k` grows; on a ≥2^18 domain a
//!   16-query wave must cost less per query than a 1-query pass or the
//!   bin exits with code 2. The pass is split over one thread per core,
//!   so on a ≥2^18 domain and a host with ≥4 threads the 1-query pass
//!   must also beat the dispatched kernel's single-thread scan of the
//!   same geometry (exit 2 otherwise).
//! * **roofline** — a streaming XOR-fold probe measures the host's actual
//!   read bandwidth (single-thread and all-threads); the measured scan
//!   throughputs are reported as fractions of that ceiling via
//!   [`impir_perf::DeviceProfile::measured_host`] and
//!   [`impir_perf::RooflineModel::scan_efficiency`]. dpXOR is memory-bound,
//!   so a ratio near 1.0 means the scan runs as fast as the memory system
//!   allows.
//!
//! Results go to stdout and to `BENCH_hotpath.json` in the working
//! directory (plus the usual `target/impir-results/hotpath.json`), so the
//! perf trajectory of these kernels is recorded per commit and CI can
//! assert that the file parses and carries the roofline-ratio series.
//!
//! Run with `cargo run -p impir-bench --release --bin hotpath -- \
//! [domain_bits] [iterations]` (defaults: 18, 5 — a ≥2^18 domain is what
//! the acceptance criteria measure; CI uses a small domain and only the
//! self-check is enforced there).

use std::sync::Arc;
use std::time::Instant;

use impir_bench::report::{DataPoint, FigureReport, Series};
use impir_core::batch::BatchExecutor;
use impir_core::database::Database;
use impir_core::dpxor::{self, ScanKernel};
use impir_core::server::cpu::{CpuPirServer, CpuServerConfig};
use impir_crypto::prg::LengthDoublingPrg;
use impir_dpf::eval::{
    eval_prefix, expand_subtree_into, expand_subtree_reference, EvalScratch, NodeState,
};
use impir_dpf::gen::generate_keys;
use impir_dpf::{host_parallelism, SelectorVector};
use impir_perf::{DeviceProfile, RooflineModel};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Record size used by the headline scan timings (bytes — the paper's
/// 40-byte credential records, a multiple of 8 so every kernel's word path
/// engages).
const RECORD_BYTES: usize = 40;

/// How many scans are averaged into one timing sample: a single 2^18-record
/// scan runs in about a millisecond, so individual samples would be
/// timer-noise bound.
const SCANS_PER_SAMPLE: usize = 16;

fn main() {
    let mut args = std::env::args().skip(1);
    let domain_bits: u32 = args
        .next()
        .map(|v| v.parse().expect("domain_bits must be an integer"))
        .unwrap_or(18);
    let iterations: usize = args
        .next()
        .map(|v| v.parse().expect("iterations must be an integer"))
        .unwrap_or(5);
    assert!((1..=24).contains(&domain_bits), "domain_bits in 1..=24");
    assert!(iterations >= 1, "at least one iteration");

    // Correctness gate first: no timing is worth reporting from a kernel
    // that diverges from the oracle. Exits with code 3 on any mismatch.
    kernel_self_check();

    let mut report = FigureReport::new(
        "hotpath",
        format!(
            "Expand + dpXOR scan kernels, 2^{domain_bits} domain: dispatch shootout, \
             fused wave, measured roofline"
        ),
        "dpXOR is memory-bound (Figure 3b): its throughput ceiling is the host's \
         read bandwidth, and the dispatched kernel must beat the old single-u64 \
         wide path by >=1.2x on a >=2^18 domain",
    );

    let (expand_old, expand_new) = time_expand(domain_bits, iterations);
    let (scan_old, scan_new) = time_scan(domain_bits, iterations);

    let mut expand = Series::new("expand (full-domain DPF evaluation)", "seconds");
    expand.push(DataPoint::new("old", 0.0, expand_old));
    expand.push(DataPoint::new("new", 1.0, expand_new));
    report.push_series(expand);
    let mut scan = Series::new("scan (dpXOR over all records)", "seconds");
    scan.push(DataPoint::new("old", 0.0, scan_old));
    scan.push(DataPoint::new("new", 1.0, scan_new));
    report.push_series(scan);

    // Kernel shootout: every registered kernel plus the dispatched choice,
    // same workload as the old-vs-new comparison.
    let shootout = kernel_shootout(domain_bits, iterations);
    let mut shootout_series = Series::new("scan kernels (40 B records, density 0.5)", "GB/s");
    for (index, (name, _, gbps)) in shootout.iter().enumerate() {
        shootout_series.push(DataPoint::new(name.clone(), index as f64, *gbps));
    }
    report.push_series(shootout_series);

    // Throughput sweep: record sizes (incl. the odd 33, which takes the
    // word+tail path) x selector densities, dispatched kernel, one thread.
    let sweep = throughput_sweep(domain_bits, iterations);
    let mut sweep_series = Series::new("scan throughput sweep (dispatched kernel)", "GB/s");
    for (index, (label, gbps)) in sweep.iter().enumerate() {
        sweep_series.push(DataPoint::new(label.clone(), index as f64, *gbps));
    }
    report.push_series(sweep_series);

    // Fused wave: per-query scan seconds of one CpuPirServer pass serving
    // k queries.
    let waves = fused_wave(domain_bits, iterations);
    let mut wave_series = Series::new(
        "fused wave (CpuPirServer pass, 40 B records, per-query scan seconds)",
        "seconds",
    );
    for (k, per_query) in &waves {
        wave_series.push(DataPoint::new(format!("k={k}"), *k as f64, *per_query));
    }
    report.push_series(wave_series);
    // A DPF share's selector has ~half the bits set, so one query's
    // selected bytes are approximated as half the database.
    let query_bytes = ((1usize << domain_bits) / 2 * RECORD_BYTES) as f64;

    // Measured roofline: probe the host's read bandwidth over a scan-sized
    // working set, then report each scan throughput as a fraction of it.
    let working_set = (1usize << domain_bits) * RECORD_BYTES;
    let probe = measure_read_bandwidth(working_set, iterations);
    let single = RooflineModel::for_device(&DeviceProfile::measured_host(
        probe.per_thread_bytes_per_sec,
        probe.per_thread_bytes_per_sec,
        1,
    ));
    let aggregate = RooflineModel::for_device(&DeviceProfile::measured_host(
        probe.per_thread_bytes_per_sec,
        probe.aggregate_bytes_per_sec,
        probe.threads,
    ));
    let mut roofline_series = Series::new(
        "scan roofline ratio (GB/s / measured read-bandwidth ceiling)",
        "fraction of ceiling",
    );
    let mut index = 0.0;
    for (name, _, gbps) in &shootout {
        roofline_series.push(DataPoint::new(
            name.clone(),
            index,
            single.scan_efficiency(*gbps),
        ));
        index += 1.0;
    }
    for (k, per_query) in &waves {
        // A pass runs on every scan thread and competes for the whole
        // memory system, so it is held to the aggregate ceiling.
        roofline_series.push(DataPoint::new(
            format!("fused wave k={k}"),
            index,
            aggregate.scan_efficiency(query_bytes / per_query / 1e9),
        ));
        index += 1.0;
    }
    report.push_series(roofline_series);

    report.push_note(format!(
        "domain = 2^{domain_bits} leaves, {RECORD_BYTES}-byte records, best of \
         {iterations} iterations per kernel, {SCANS_PER_SAMPLE} scans per sample"
    ));
    report.push_note(format!(
        "expand speedup: {:.2}x, dispatched-scan speedup vs old wide path: {:.2}x \
         (dispatched kernel: {})",
        expand_old / expand_new,
        scan_old / scan_new,
        dpxor::best_kernel().name()
    ));
    report.push_note(format!(
        "measured read bandwidth: {:.2} GB/s single-thread, {:.2} GB/s with {} threads \
         (streaming XOR-fold over the {}-byte scan working set); scan GB/s counts \
         selected-record bytes (count_ones x record_size)",
        probe.per_thread_bytes_per_sec / 1e9,
        probe.aggregate_bytes_per_sec / 1e9,
        probe.threads,
        working_set
    ));
    let single_thread = shootout[shootout.len() - 1].1;
    let one_query_pass = waves[0].1;
    report.push_note(format!(
        "1-query CpuPirServer pass on {} threads: {one_query_pass:.6}s; dispatched kernel \
         on one thread: {single_thread:.6}s",
        host_parallelism()
    ));
    report.push_note(format!(
        "roofline: dpXOR is memory-bound on this host (ridge point {:.2} op/B vs dpXOR \
         intensity {:.3} op/B), so the ratio is throughput / measured bandwidth",
        aggregate.ridge_point(),
        impir_perf::roofline::DPXOR_OPERATIONAL_INTENSITY
    ));
    report.emit();

    match std::fs::write("BENCH_hotpath.json", report.to_json()) {
        Ok(()) => println!("[kernel timings written to BENCH_hotpath.json]"),
        Err(err) => {
            eprintln!("error: could not write BENCH_hotpath.json: {err}");
            std::process::exit(1);
        }
    }

    // Enforce the acceptance criteria on a >=2^18 domain, with small
    // domains (the CI smoke step) only warning: sub-millisecond kernels are
    // timer-noise bound there, and the smoke step's job is to keep the bin,
    // its self-check and its report format alive.
    let enforce = domain_bits >= 18;
    let mut regressed = false;
    if expand_new > expand_old * 1.10 {
        regressed = true;
        eprintln!(
            "warning: new expand path slower than old ({expand_new:.6}s vs {expand_old:.6}s)"
        );
    }
    if scan_new * 1.2 > scan_old {
        regressed = true;
        eprintln!(
            "warning: dispatched scan kernel below the 1.2x bar vs the old wide path \
             ({:.2}x: {scan_new:.6}s vs {scan_old:.6}s)",
            scan_old / scan_new
        );
    }
    // One pass serves the whole wave, so a full wave must cost less per
    // query than a pass serving one query.
    let ((_, one), (largest, full)) = (waves[0], waves[waves.len() - 1]);
    if full >= one {
        regressed = true;
        eprintln!(
            "warning: a {largest}-query fused wave is not cheaper per query than a \
             1-query pass ({full:.6}s vs {one:.6}s)"
        );
    }
    // Splitting a pass over threads needs threads to split over: only
    // gated where the host exposes at least 4 hardware threads.
    if host_parallelism() >= 4 {
        if one_query_pass >= single_thread {
            regressed = true;
            eprintln!(
                "warning: a 1-query pass on {} threads is not faster than the \
                 dispatched kernel on one thread ({one_query_pass:.6}s vs {single_thread:.6}s)",
                host_parallelism()
            );
        }
    } else {
        println!(
            "[thread-scaling criterion skipped: host exposes {} hardware thread(s)]",
            host_parallelism()
        );
    }
    if enforce && regressed {
        eprintln!("error: kernel regression on a >=2^18 domain (see warnings above)");
        std::process::exit(2);
    }
}

/// Replays every registered kernel against the scalar oracle across record
/// sizes (odd ones included) and selector densities; exits with code 3 on
/// the first divergence. Mirrors the proptests in `impir_core::dpxor`, so a
/// release binary on a new machine re-proves byte-identity before timing.
fn kernel_self_check() {
    let mut rng = StdRng::seed_from_u64(0x5e1f_c4ec);
    let count = 513;
    for record_size in [1usize, 2, 7, 8, 9, 16, 33, 40, 64, 65, 72, 100, 257] {
        let records: Vec<u8> = (0..count * record_size).map(|_| rng.gen()).collect();
        let selectors: [(&str, SelectorVector); 4] = [
            ("all-zero", SelectorVector::zeros(count)),
            ("all-one", (0..count).map(|_| true).collect()),
            ("sparse", (0..count).map(|i| i % 97 == 0).collect()),
            ("random", (0..count).map(|_| rng.gen::<bool>()).collect()),
        ];
        for (pattern, selector) in &selectors {
            let mut oracle = vec![0u8; record_size];
            dpxor::xor_select_scalar(&records, record_size, selector, &mut oracle);
            for kernel in dpxor::kernels() {
                let mut out = vec![0u8; record_size];
                let mut acc_words = Vec::new();
                kernel.xor_select(&records, record_size, selector, &mut out, &mut acc_words);
                if out != oracle {
                    eprintln!(
                        "error: kernel '{}' diverges from the scalar oracle \
                         (record_size={record_size}, pattern={pattern})",
                        kernel.name()
                    );
                    std::process::exit(3);
                }
            }
        }
    }
    fused_self_check(&mut rng);
    println!(
        "[self-check passed: {} kernels byte-identical to the scalar oracle, \
         single and fused scans]",
        dpxor::kernels().len()
    );
}

/// Replays every kernel's fused multi-selector scan against `k`
/// independent scalar scans, for `k` across and beyond the wave width and
/// over record sizes on both sides of the register/tiled split; exits
/// with code 3 on the first divergence.
fn fused_self_check(rng: &mut StdRng) {
    let count = 513;
    for record_size in [1usize, 8, 33, 40, 64, 65, 200, 257] {
        let records: Vec<u8> = (0..count * record_size).map(|_| rng.gen()).collect();
        for k in [2usize, 16, 17] {
            let selectors: Vec<SelectorVector> = (0..k)
                .map(|j| match j % 4 {
                    0 => (0..count).map(|i| i % 97 == j).collect(),
                    1 => (0..count).map(|i| i != j).collect(),
                    _ => (0..count).map(|_| rng.gen::<bool>()).collect(),
                })
                .collect();
            let refs: Vec<&SelectorVector> = selectors.iter().collect();
            let mut oracle = vec![0u8; k * record_size];
            for (selector, accumulator) in
                selectors.iter().zip(oracle.chunks_exact_mut(record_size))
            {
                dpxor::xor_select_scalar(&records, record_size, selector, accumulator);
            }
            for kernel in dpxor::kernels() {
                let mut out = vec![0u8; k * record_size];
                kernel.xor_select_many(&records, record_size, &refs, &mut out, &mut Vec::new());
                if out != oracle {
                    eprintln!(
                        "error: kernel '{}' fused scan diverges from {k} scalar scans \
                         (record_size={record_size})",
                        kernel.name()
                    );
                    std::process::exit(3);
                }
            }
        }
    }
}

/// Times one full-domain expansion per iteration through the old and the
/// new kernel, returning the best wall time of each.
fn time_expand(domain_bits: u32, iterations: usize) -> (f64, f64) {
    let mut rng = StdRng::seed_from_u64(0x1234_5678);
    let alpha = rng.gen_range(0..(1u64 << domain_bits));
    let (key, _) = generate_keys(domain_bits, alpha, &mut rng).expect("valid parameters");
    let prg = LengthDoublingPrg::default();
    let root = NodeState::root(&key);
    debug_assert_eq!(
        root,
        eval_prefix(&key, 0, 0, &prg).expect("the empty prefix is valid")
    );

    // Warm-up + correctness pin: both kernels agree bit for bit.
    let reference = expand_subtree_reference(&key, root, 0, &prg);
    let mut scratch = EvalScratch::new();
    let mut out = SelectorVector::zeros(0);
    expand_subtree_into(&key, root, 0, &prg, &mut scratch, &mut out);
    assert_eq!(out, reference, "old and new expansion disagree");

    let mut best_old = f64::INFINITY;
    let mut best_new = f64::INFINITY;
    for _ in 0..iterations {
        let started = Instant::now();
        let old = expand_subtree_reference(&key, root, 0, &prg);
        best_old = best_old.min(started.elapsed().as_secs_f64());
        std::hint::black_box(&old);

        // Scratch reused across iterations, as batch serving reuses it
        // across queries; only the output vector is rebuilt.
        let started = Instant::now();
        let mut new = SelectorVector::zeros(0);
        new.reserve_bits(1usize << domain_bits);
        expand_subtree_into(&key, root, 0, &prg, &mut scratch, &mut new);
        best_new = best_new.min(started.elapsed().as_secs_f64());
        std::hint::black_box(&new);
    }
    (best_old, best_new)
}

/// A seeded random scan workload: `2^domain_bits` records of `record_size`
/// bytes plus a selector of the requested density.
fn scan_workload(
    domain_bits: u32,
    record_size: usize,
    density: f64,
    seed: u64,
) -> (Vec<u8>, SelectorVector) {
    let num_records = 1usize << domain_bits;
    let mut rng = StdRng::seed_from_u64(seed);
    let records: Vec<u8> = (0..num_records * record_size).map(|_| rng.gen()).collect();
    let selector: SelectorVector = (0..num_records)
        .map(|_| rng.gen::<f64>() < density)
        .collect();
    (records, selector)
}

/// Best per-scan wall time of `scan` over `iterations` samples of
/// [`SCANS_PER_SAMPLE`] scans each.
fn best_scan_seconds(iterations: usize, mut scan: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..iterations {
        let started = Instant::now();
        for _ in 0..SCANS_PER_SAMPLE {
            scan();
        }
        best = best.min(started.elapsed().as_secs_f64() / SCANS_PER_SAMPLE as f64);
    }
    best
}

/// Times the full-database `dpXOR` through the previous single-u64 wide
/// path and through the runtime-dispatched kernel, returning each path's
/// best per-scan wall time.
fn time_scan(domain_bits: u32, iterations: usize) -> (f64, f64) {
    let (records, selector) = scan_workload(domain_bits, RECORD_BYTES, 0.5, 0x9abc_def0);
    let kernel = dpxor::best_kernel();

    let mut old_payload = vec![0u8; RECORD_BYTES];
    let best_old = best_scan_seconds(iterations, || {
        old_payload.fill(0);
        dpxor::xor_select_wide(&records, RECORD_BYTES, &selector, &mut old_payload);
        std::hint::black_box(&old_payload);
    });

    let mut new_payload = vec![0u8; RECORD_BYTES];
    let mut acc_words = Vec::new();
    let best_new = best_scan_seconds(iterations, || {
        new_payload.fill(0);
        kernel.xor_select(
            &records,
            RECORD_BYTES,
            &selector,
            &mut new_payload,
            &mut acc_words,
        );
        std::hint::black_box(&new_payload);
    });
    assert_eq!(old_payload, new_payload, "scan kernels disagree");
    (best_old, best_new)
}

/// Times every registered kernel plus the dispatched choice on the headline
/// workload, returning `(name, best seconds, GB/s of selected bytes)`.
fn kernel_shootout(domain_bits: u32, iterations: usize) -> Vec<(String, f64, f64)> {
    let (records, selector) = scan_workload(domain_bits, RECORD_BYTES, 0.5, 0x51de_ca5e);
    let scanned_bytes = (selector.count_ones() * RECORD_BYTES) as f64;

    let mut contenders: Vec<(String, &'static dyn ScanKernel)> = dpxor::kernels()
        .iter()
        .map(|kernel| (kernel.name().to_string(), *kernel))
        .collect();
    let dispatched = dpxor::best_kernel();
    contenders.push((format!("dispatched ({})", dispatched.name()), dispatched));

    let mut results = Vec::with_capacity(contenders.len());
    let mut reference: Option<Vec<u8>> = None;
    for (name, kernel) in contenders {
        let mut payload = vec![0u8; RECORD_BYTES];
        let mut acc_words = Vec::new();
        let seconds = best_scan_seconds(iterations, || {
            payload.fill(0);
            kernel.xor_select(
                &records,
                RECORD_BYTES,
                &selector,
                &mut payload,
                &mut acc_words,
            );
            std::hint::black_box(&payload);
        });
        match &reference {
            None => reference = Some(payload),
            Some(expected) => assert_eq!(&payload, expected, "kernel '{name}' disagrees"),
        }
        results.push((name, seconds, scanned_bytes / seconds / 1e9));
    }
    results
}

/// Scan GB/s of the dispatched kernel across record sizes and selector
/// densities, returning `(label, GB/s)` per cell. Record size 33 is the odd
/// one: its records take the word+tail path (four aligned words + one
/// byte-tail word per record).
fn throughput_sweep(domain_bits: u32, iterations: usize) -> Vec<(String, f64)> {
    let kernel = dpxor::best_kernel();
    let mut results = Vec::new();
    for record_size in [32usize, 40, 33] {
        for (density_label, density) in [("sparse", 1.0 / 64.0), ("0.5", 0.5), ("1.0", 1.0)] {
            let (records, selector) = scan_workload(domain_bits, record_size, density, 0xba5e_0001);
            let scanned_bytes = (selector.count_ones() * record_size) as f64;
            let mut payload = vec![0u8; record_size];
            let mut acc_words = Vec::new();
            let seconds = best_scan_seconds(iterations, || {
                payload.fill(0);
                kernel.xor_select(
                    &records,
                    record_size,
                    &selector,
                    &mut payload,
                    &mut acc_words,
                );
                std::hint::black_box(&payload);
            });
            results.push((
                format!("{record_size}B d={density_label}"),
                scanned_bytes / seconds / 1e9,
            ));
        }
    }
    results
}

/// Wave sizes the fused-wave series times, up to the CPU backend's wave
/// width.
const WAVE_SIZES: [usize; 5] = [1, 2, 4, 8, 16];

/// Times one [`CpuPirServer`] pass per wave size in [`WAVE_SIZES`] over
/// the bin's geometry, returning `(k, best pass seconds / k)`. Every
/// pass's payloads are pinned byte-identical to one-selector passes.
fn fused_wave(domain_bits: u32, iterations: usize) -> Vec<(usize, f64)> {
    let num_records = 1usize << domain_bits;
    let database = Arc::new(
        Database::random(num_records as u64, RECORD_BYTES, 0xd0_5eed).expect("valid geometry"),
    );
    let mut server =
        CpuPirServer::new(database, CpuServerConfig::baseline()).expect("valid configuration");
    let mut rng = StdRng::seed_from_u64(0x7761_7665);
    let max_wave = WAVE_SIZES[WAVE_SIZES.len() - 1];
    let selectors: Vec<SelectorVector> = (0..max_wave)
        .map(|_| (0..num_records).map(|_| rng.gen::<bool>()).collect())
        .collect();
    let singles: Vec<Vec<u8>> = selectors
        .iter()
        .map(|selector| {
            let (mut payloads, _) = server.execute_wave(&[selector]).expect("scan succeeds");
            payloads.remove(0)
        })
        .collect();

    let mut results = Vec::with_capacity(WAVE_SIZES.len());
    for k in WAVE_SIZES {
        let wave: Vec<&SelectorVector> = selectors[..k].iter().collect();
        let mut best = f64::INFINITY;
        for _ in 0..iterations {
            let started = Instant::now();
            let (payloads, _) = server.execute_wave(&wave).expect("scan succeeds");
            best = best.min(started.elapsed().as_secs_f64());
            assert_eq!(
                payloads,
                singles[..k],
                "a {k}-query pass diverges from one-query passes"
            );
        }
        results.push((k, best / k as f64));
    }
    results
}

/// Result of the streaming read-bandwidth probe.
struct BandwidthProbe {
    /// Sustained single-thread read bandwidth, bytes/second.
    per_thread_bytes_per_sec: f64,
    /// Sustained read bandwidth with all hardware threads streaming
    /// disjoint slices, bytes/second.
    aggregate_bytes_per_sec: f64,
    /// Threads used for the aggregate measurement.
    threads: usize,
}

/// Measures the host's sustained read bandwidth with an XOR-fold over a
/// `working_set_bytes` buffer — the same access pattern as a full-density
/// scan, so the resulting ceiling is what `dpXOR` could at best achieve
/// (including whatever cache level the working set actually lives in).
fn measure_read_bandwidth(working_set_bytes: usize, iterations: usize) -> BandwidthProbe {
    let words = (working_set_bytes / 8).max(1 << 16);
    let buffer: Vec<u64> = (0..words as u64)
        .map(|i| i.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .collect();

    let fold = |slice: &[u64]| {
        let mut acc = 0u64;
        for chunk in slice.chunks_exact(8) {
            acc ^= chunk[0] ^ chunk[1] ^ chunk[2] ^ chunk[3];
            acc ^= chunk[4] ^ chunk[5] ^ chunk[6] ^ chunk[7];
        }
        for word in slice.chunks_exact(8).remainder() {
            acc ^= word;
        }
        acc
    };

    let mut best_single = f64::INFINITY;
    for _ in 0..iterations.max(3) {
        let started = Instant::now();
        std::hint::black_box(fold(&buffer));
        best_single = best_single.min(started.elapsed().as_secs_f64());
    }

    let threads = host_parallelism();
    let mut best_aggregate = f64::INFINITY;
    if threads > 1 {
        let per_thread = words.div_ceil(threads);
        for _ in 0..iterations.max(3) {
            let started = Instant::now();
            std::thread::scope(|scope| {
                for slice in buffer.chunks(per_thread) {
                    scope.spawn(move || std::hint::black_box(fold(slice)));
                }
            });
            best_aggregate = best_aggregate.min(started.elapsed().as_secs_f64());
        }
    } else {
        best_aggregate = best_single;
    }

    let bytes = (words * 8) as f64;
    BandwidthProbe {
        per_thread_bytes_per_sec: bytes / best_single,
        aggregate_bytes_per_sec: bytes / best_aggregate,
        threads,
    }
}
