#ifndef BZK_CORE_SNARK_H_
#define BZK_CORE_SNARK_H_

/**
 * @file
 * The BatchZK proof system (ProtocolKind::TableCommit): the table
 * SNARK with the multiplicative gate, i.e. the cubic constraint
 * sum-check  sum_x eq(tau,x) * (a(x)b(x) - c(x)) = 0  that shows the
 * committed tables of a circuit satisfy a*b = c row-wise.
 */

#include <cstdint>

#include "core/TableSnark.h"

namespace bzk {

template <typename F>
struct SnarkProof;

/** The multiplicative gate a*b - c: cubic round polynomials. */
struct MulGate
{
    static constexpr size_t kDegree = 3;

    template <typename F>
    static F
    eval(const F &a, const F &b, const F &c)
    {
        return a * b - c;
    }

    static constexpr const char *kDomain = "batchzk.snark.v1";
    static constexpr uint8_t kProofTag = 0x01;
    static constexpr SumcheckLabels kLabels{"csc.g", "csc.r"};
    template <typename F>
    using Proof = SnarkProof<F>;
    template <typename F>
    static constexpr auto kSumcheck = &SnarkProof<F>::constraint_sc;
};

/** A complete BatchZK proof. */
template <typename F>
struct SnarkProof : TableProofBody<F>
{
    /** Cubic constraint sum-check: 4 evaluations per round. */
    ProductSumcheckProof<F> constraint_sc;

    /** Rough wire size of the proof in bytes (paper: "several MB"). */
    size_t
    sizeBytes() const
    {
        return TableProofBody<F>::sizeBytes(constraint_sc);
    }
};

/** Prover + verifier for a fixed circuit-size class. */
template <typename F>
using Snark = TableSnark<F, MulGate>;

} // namespace bzk

#endif // BZK_CORE_SNARK_H_
