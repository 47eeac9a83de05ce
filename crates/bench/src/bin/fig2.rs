//! Renders the paper's Fig. 2 — the framework diagram — as text: the three
//! steps, the menu of techniques at each, and (in brackets) the choices the
//! paper uses / this library implements as defaults.

fn main() {
    println!(
        "\
Fig. 2 — The sampling-based work partitioning framework (paper §II)

   ┌─────────────┐      ┌──────────────┐      ┌───────────────┐
   │  1. SAMPLE  │ ───> │ 2. IDENTIFY  │ ───> │ 3. EXTRAPOLATE│
   └─────────────┘      └──────────────┘      └───────────────┘

 Step 1 — build a miniature input I_s from I
   • [uniform random sampling]             (CcSampler::Contract, sample_submatrix,
                                            sample_rows_contract)
   • importance sampling                   (HhSampler::Importance — implemented,
                                            left to future work by the paper)
   • predetermined / deterministic         (predetermined_submatrix — shown
                                            inaccurate by Fig. 7)

 Step 2 — find the best threshold on I_s
   • [coarse-to-fine grid, strides 8 → 1]  (Strategy::CoarseToFine; CC)
   • [device race + fine probes]           (Strategy::RaceThenFine; spmm)
   • [gradient descent]                    (Strategy::GradientDescent;
                                            scale-free spmm, multi-start)
   • exhaustive on the sample              (Strategy::Exhaustive)
   • subgradient descent on the cost curve (Strategy::Analytic)
   Every candidate is priced on a cost profile of I_s.

 Step 3 — map t' on I_s back to t on I
   • [identity]                            (CC, spmm, dense, sort, SpMV, lists)
   • [offline best-fit relation]           (Extrapolator::DegreeQuantile — the
                                            fit that yields t = t'² on Pareto
                                            tails; Square / Power / fit_power
                                            also available)

 (Defaults in [brackets] are the paper's bold-face choices.)"
    );
}
