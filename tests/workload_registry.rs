//! Every front end that builds a kernel by name, pinned program by program.
//!
//! Three routes build workloads: the suites (`extended_suite` then
//! `irregular_suite`), a served flag-style job (`JobSpec::from_json` on
//! `{"bench", "cores", "scale"}`, then `workload()`), and a served
//! `{"scenario": …}` job that names only the kernel and the core count, so
//! every input takes its default. Each line is one route × kernel × core
//! count × scale: `refused`, or the FNV-1a digests of the program image and
//! of the expected output, the thread count and the input description. A
//! scenario has no scale, so its lines carry `-`.
//!
//! A change to which programs a route builds, or which requests it refuses,
//! regenerates `tests/golden/workloads.txt` with `SK_REGEN_GOLDEN=1 cargo
//! test --test workload_registry` and says which lines moved and why.

#[allow(dead_code)]
mod common;

use common::{check_golden, fnv1a64};
use sk_serve::job::JobSpec;
use sk_serve::json::{escape, parse};
use slacksim_suite::kernels::{extended_suite, irregular_suite, paper_suite, KERNELS};
use slacksim_suite::prelude::*;

const CORES: [usize; 5] = [1, 2, 4, 8, 64];
const SCALES: [(Scale, &str); 3] =
    [(Scale::Test, "test"), (Scale::Bench, "bench"), (Scale::Full, "full")];

fn line(route: &str, kernel: &str, cores: usize, scale: &str, w: Option<&Workload>) -> String {
    let Some(w) = w else { return format!("{route} {kernel} c{cores} {scale} refused\n") };
    assert_eq!(w.name, kernel, "{route} built another kernel");
    let mut image = w.program.entry.to_le_bytes().to_vec();
    for (addr, word) in w.program.image() {
        image.extend(addr.to_le_bytes());
        image.extend(word.to_le_bytes());
    }
    let expected: Vec<u8> = w.expected.iter().flat_map(|v| v.to_le_bytes()).collect();
    format!(
        "{route} {kernel} c{cores} {scale} ok image={:016x} expected={:016x} n_threads={} input={}\n",
        fnv1a64(image),
        fnv1a64(expected),
        w.n_threads,
        w.input
    )
}

/// The workload a served request body builds, `None` if admission refuses it.
fn served(body: &str) -> Option<Workload> {
    let spec = JobSpec::from_json(&parse(body).expect("test bodies are json"), "t").ok()?;
    Some(spec.workload().expect("an admitted spec builds its workload"))
}

#[test]
fn every_route_builds_the_pinned_programs() {
    let mut actual = String::new();
    for (scale, sname) in SCALES {
        for cores in CORES {
            let suite: Vec<Workload> = extended_suite(cores, scale)
                .into_iter()
                .chain(irregular_suite(cores, scale))
                .collect();
            let paper = paper_suite(cores, scale);
            for (p, w) in paper.iter().zip(&suite) {
                assert_eq!((&p.name, p.program.image().eq(w.program.image())), (&w.name, true));
            }
            for w in &suite {
                actual += &line("suite", &w.name, cores, sname, Some(w));
            }
        }
    }
    for (_, sname) in SCALES {
        for cores in CORES {
            for kernel in KERNELS.iter().map(|k| k.name) {
                let body = format!(r#"{{"bench":"{kernel}","cores":{cores},"scale":"{sname}"}}"#);
                actual += &line("flags", kernel, cores, sname, served(&body).as_ref());
            }
        }
    }
    for cores in CORES {
        for kernel in KERNELS.iter().map(|k| k.name) {
            let skn = format!("[target]\ncores = {cores}\n[kernel]\nname = \"{kernel}\"\n");
            let body = format!(r#"{{"scenario":"{}"}}"#, escape(&skn));
            actual += &line("scenario", kernel, cores, "-", served(&body).as_ref());
        }
    }
    check_golden(
        "workloads.txt",
        &actual,
        "a route builds another program or refuses another request (label = route, \
         kernel, cores, scale). Regenerate with SK_REGEN_GOLDEN=1 only for an intended change",
    );
}
