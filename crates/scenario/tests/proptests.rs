//! Property wall for the `.skn` scenario format.
//!
//! Three invariants pin the frontend:
//! 1. **Round-trip**: for any valid [`Scenario`], `parse(emit(s)) == s`
//!    (the canonical form is a fixed point, including the content hash).
//! 2. **Totality**: arbitrary byte mutations of a valid file produce
//!    either a valid scenario or a typed [`ScenarioParseError`] — never a
//!    panic, and never an unrunnable "valid" scenario.
//! 3. **Garbage totality**: fully random text is equally panic-free.

use proptest::prelude::*;
use sk_core::{CoreModel, Scheme};
use sk_kernels::KERNELS;
use sk_scenario::Scenario;

fn arb_scheme() -> BoxedStrategy<Scheme> {
    prop_oneof![
        Just(Scheme::CycleByCycle),
        (1u64..500).prop_map(Scheme::Quantum),
        (1u64..500).prop_map(Scheme::BoundedSlack),
        (1u64..500).prop_map(Scheme::OldestFirstBounded),
        Just(Scheme::Unbounded),
    ]
    .boxed()
}

fn arb_scenario() -> BoxedStrategy<Scenario> {
    (
        (0usize..KERNELS.len(), 2usize..=12, 0usize..=4, any::<bool>()),
        (arb_scheme(), any::<bool>()),
        (
            (0u64..20_000, any::<bool>()),
            (0u64..100_000, any::<bool>()),
            (0u32..1000, any::<bool>()),
            1i64..=64,
        ),
    )
        .prop_map(move |((ki, cores, shards, inorder), (scheme, track), (chk, roi, name, pval))| {
            let kernel = &KERNELS[ki];
            let mut sc = Scenario {
                cores,
                mem_shards: shards,
                model: if inorder { CoreModel::InOrder } else { CoreModel::OutOfOrder },
                scheme,
                track_violations: track,
                checkpoint_at: chk.1.then_some(chk.0 + 1),
                roi_instructions: roi.1.then_some(roi.0 + 1),
                kernel: kernel.name.to_string(),
                ..Scenario::default()
            };
            if name.1 {
                sc.name = format!("prop-{}", name.0);
            }
            // Override the kernel's first parameter half the time.
            if pval % 2 == 0 {
                if let Some((key, _)) = kernel.params.first() {
                    sc.params.insert(key.to_string(), pval);
                }
            }
            sc
        })
        .boxed()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn emit_then_parse_is_identity(sc in arb_scenario()) {
        let text = sc.emit();
        let back = match Scenario::parse(&text) {
            Ok(b) => b,
            Err(e) => return Err(TestCaseError::Fail(
                format!("canonical form failed to parse: {e}\n{text}"))),
        };
        prop_assert_eq!(&back, &sc);
        prop_assert_eq!(back.hash(), sc.hash());
        // The canonical form is a fixed point of emit ∘ parse.
        prop_assert_eq!(back.emit(), text);
    }

    #[test]
    fn mutated_files_never_panic_and_errors_stay_typed(
        sc in arb_scenario(),
        muts in proptest::collection::vec((0usize..4096, 0u8..=255), 1..8),
    ) {
        let mut bytes = sc.emit().into_bytes();
        for (pos, byte) in muts {
            let i = pos % bytes.len();
            bytes[i] = byte;
        }
        let text = String::from_utf8_lossy(&bytes);
        match Scenario::parse(&text) {
            // A still-valid scenario must still be runnable end to end.
            Ok(parsed) => {
                prop_assert!(parsed.workload().is_ok());
            }
            // The Display impl must be total too.
            Err(e) => {
                prop_assert!(!e.to_string().is_empty());
            }
        }
    }

    #[test]
    fn random_garbage_never_panics(
        bytes in proptest::collection::vec(0u8..=255, 0..256),
    ) {
        let text = String::from_utf8_lossy(&bytes);
        if let Err(e) = Scenario::parse(&text) {
            prop_assert!(!e.to_string().is_empty());
        }
    }
}
