//! Ablation — winnowing vs `h mod p == 0` fingerprint sampling.
//!
//! Section III-B of the paper describes the classic mod-p selection used
//! before winnowing existed. Both select a similar fraction of the k-gram
//! stream, but only winnowing guarantees that every shared run of `t`
//! points yields a shared fingerprint. The ablation measures, per method:
//! fingerprint density, and the fraction of (query, relevant) pairs that
//! end up sharing **zero** fingerprints — retrieval misses a pair like
//! that entirely.
//!
//! Run with `cargo bench -p geodabs-bench --bench ablation_sampling`.

use geodabs_bench::*;
use geodabs_core::winnow::{sample_mod_p, winnow};
use geodabs_core::{geodab, Fingerprints, GeodabConfig};
use geodabs_traj::{GeohashNormalizer, Normalizer, Trajectory};

/// Candidate geodab stream of a trajectory under the default config.
fn candidates(t: &Trajectory, config: &GeodabConfig) -> Vec<u32> {
    let norm = GeohashNormalizer::new(config.normalization_depth())
        .expect("valid depth")
        .normalize(t);
    if norm.len() < config.k() {
        return Vec::new();
    }
    norm.k_grams(config.k())
        .map(|g| geodab(g, config.prefix_bits()))
        .collect()
}

fn main() {
    let scale = Scale::from_env();
    let net = london_network();
    let ds = dense_dataset(&net, scale, 23);
    let config = GeodabConfig::default();
    // Winnowing density is 2/(w+1); choose p for a comparable density.
    let p = config.window().div_ceil(2).max(1) as u32;

    let mut rows: Vec<(&str, f64, f64, f64)> = Vec::new();
    for method in ["winnowing", "mod-p"] {
        let fingerprint = |t: &Trajectory| -> Fingerprints {
            let cands = candidates(t, &config);
            let picked = match method {
                "winnowing" => winnow(&cands, config.window()),
                _ => sample_mod_p(&cands, p),
            };
            Fingerprints::from_ordered(picked)
        };

        let mut total_fps = 0usize;
        let mut total_cands = 0usize;
        // Coverage guarantee: fraction of length-w candidate windows that
        // contain at least one selected fingerprint. Winnowing guarantees
        // 1.0 by construction; mod-p can leave arbitrarily long gaps, so
        // a long shared sub-trajectory may yield no common fingerprint.
        let mut windows = 0usize;
        let mut covered = 0usize;
        for r in ds.records() {
            total_fps += fingerprint(&r.trajectory).len();
            let cands = candidates(&r.trajectory, &config);
            total_cands += cands.len();
            let w = config.window();
            if cands.len() >= w {
                for win in cands.windows(w) {
                    windows += 1;
                    let hit = match method {
                        "winnowing" => true, // by the winnowing invariant
                        _ => win.iter().any(|h| h % p == 0),
                    };
                    if hit {
                        covered += 1;
                    }
                }
            }
        }
        let density = total_fps as f64 / total_cands.max(1) as f64;
        let coverage = covered as f64 / windows.max(1) as f64;

        // Guarantee check: query vs each relevant sibling.
        let mut pairs = 0usize;
        let mut zero_overlap = 0usize;
        for q in ds.queries() {
            let qfp = fingerprint(&q.trajectory);
            for id in ds.relevant_ids(q) {
                let rec = &ds.records()[id.raw() as usize];
                let rfp = fingerprint(&rec.trajectory);
                pairs += 1;
                let r = rfp.distinct();
                if !qfp.distinct().iter().any(|g| r.binary_search(g).is_ok()) {
                    zero_overlap += 1;
                }
            }
        }
        rows.push((
            if method == "winnowing" {
                "winnowing"
            } else {
                "h mod p == 0"
            },
            density,
            zero_overlap as f64 / pairs.max(1) as f64,
            coverage,
        ));
    }

    print_header(
        "Ablation: fingerprint selection method",
        &["method", "density", "pairs missed", "win coverage"],
    );
    for (name, density, missed, coverage) in rows {
        print_row(&[name.to_string(), f3(density), f3(missed), f3(coverage)]);
    }
    println!();
    println!(
        "notes: 'pairs missed' = fraction of (query, relevant) pairs sharing \
         zero fingerprints (unretrievable no matter the ranking). 'win \
         coverage' = fraction of length-w candidate windows containing a \
         selection: winnowing guarantees 1.0 (any exactly-shared run of t \
         points yields a common fingerprint); mod-p does not, but picks by \
         value, which helps on noisy near-duplicates."
    );
}
