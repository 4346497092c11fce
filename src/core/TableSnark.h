#ifndef BZK_CORE_TABLESNARK_H_
#define BZK_CORE_TABLESNARK_H_

/**
 * @file
 * The table SNARK: the one proving skeleton every table-commitment
 * protocol kind runs, composed exactly from the paper's three modules
 * (Figure 7 data flow):
 *
 *   1. commit the tables a, b, c with the tensor PCS
 *      (linear-time encoder -> column Merkle trees -> roots);
 *   2. derive the challenge tau from the roots (Fiat-Shamir);
 *   3. run the gate sum-check  sum_x eq(tau,x) * gate(a,b,c)(x) = 0;
 *   4. open a, b, c at the sum-check's final point through the PCS;
 *   5. the verifier replays the transcript, checks the sum-check,
 *      checks eq(tau,r) * gate(va, vb, vc) == final sum-check claim,
 *      and checks the three openings.
 *
 * What differs between protocol kinds is data on the Gate type (see
 * sumcheck/GateSumcheck.h for kDegree and eval):
 *
 *   static constexpr const char *kDomain;      // transcript domain
 *   static constexpr uint8_t kProofTag;        // leading proof byte
 *   static constexpr SumcheckLabels kLabels;   // sum-check labels
 *   template <typename F> using Proof = ...;   // its proof type
 *   template <typename F> static constexpr auto kSumcheck = ...;
 *                               // the proof's sum-check member
 *
 * Distinct domains mean a proof of one gate never replays as another.
 *
 * Simplifications relative to a production system are documented in
 * DESIGN.md Sec. 6 (notably: wiring consistency between gates is not
 * proven — the committed tables are only shown to be gate-consistent —
 * and soundness parameters are test-sized by default).
 */

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <vector>

#include "circuit/Circuit.h"
#include "core/TensorPcs.h"
#include "hash/Transcript.h"
#include "poly/Multilinear.h"
#include "sumcheck/GateSumcheck.h"
#include "util/Log.h"

namespace bzk {

/**
 * Stage boundaries the interruptible prover reports, matching the
 * pipeline's module groups. The encoder and Merkle modules are fused
 * inside TensorPcs::commit, so their boundary is observed at commit
 * granularity: Encode fires once the first table is committed, Merkle
 * once all three are.
 */
enum class ProveStage : uint8_t {
    /** First table committed (encoder module has run). */
    Encode,
    /** All tables committed (Merkle module has run). */
    Merkle,
    /** Constraint challenge derived from the transcript. */
    FiatShamir,
    /** Gate sum-check finished (openings still outstanding). */
    Sumcheck,
};

/**
 * Called at each ProveStage boundary of an interruptible prove. Return
 * false to abandon the proof there — the crash/recovery harness uses
 * this to model a process dying between pipeline stages.
 */
using ProveStageHook = std::function<bool(ProveStage)>;

/** PCS spot-check count used unless a caller picks another. */
constexpr size_t kDefaultColumnOpenings = 8;

/**
 * Everything of a table-SNARK proof but its sum-check, which each
 * gate's proof type adds under its own member name.
 */
template <typename F>
struct TableProofBody
{
    PcsCommitment commit_a;
    PcsCommitment commit_b;
    PcsCommitment commit_c;
    /** Claimed openings of the three tables at the sum-check point. */
    F va{};
    F vb{};
    F vc{};
    PcsEvalProof<F> open_a;
    PcsEvalProof<F> open_b;
    PcsEvalProof<F> open_c;

    /** Rough wire size in bytes, given the proof's sum-check. */
    size_t
    sizeBytes(const ProductSumcheckProof<F> &sc) const
    {
        size_t bytes = 3 * 32; // roots
        for (const auto &round : sc.rounds)
            bytes += round.size() * F::kNumBytes;
        bytes += 3 * F::kNumBytes;
        for (const PcsEvalProof<F> *open : {&open_a, &open_b, &open_c}) {
            bytes += (open->eval_row.size() + open->proximity_row.size()) *
                     F::kNumBytes;
            for (const auto &column : open->columns)
                bytes += column.size() * F::kNumBytes;
            for (const auto &path : open->paths)
                bytes += path.siblings.size() * 32 + 8;
        }
        return bytes;
    }
};

/** Prover + verifier of one gate for a fixed table-size class. */
template <typename F, typename Gate>
class TableSnark
{
  public:
    using Proof = typename Gate::template Proof<F>;

    /**
     * @param n_vars tables have 2^n_vars rows.
     * @param seed   shared encoder seed (part of the public parameters).
     * @param column_openings PCS spot-check count.
     */
    TableSnark(unsigned n_vars, uint64_t seed,
               size_t column_openings = kDefaultColumnOpenings)
        : n_vars_(n_vars), pcs_(n_vars, seed, column_openings)
    {
    }

    /** The PCS instance (exposed for cost accounting). */
    const TensorPcs<F> &pcs() const { return pcs_; }

    /**
     * Attach a host execution context: commits, sum-check rounds, and
     * openings run across its thread pool. The context must outlive the
     * prover calls; proofs are bit-identical for any thread count.
     */
    void setExec(const exec::ExecContext *exec) { exec_ = exec; }

    /** Prove that the tables satisfy the gate row-wise. */
    Proof
    prove(const ConstraintTables<F> &tables,
          std::span<const F> public_inputs) const
    {
        return *proveInterruptible(tables, public_inputs, {});
    }

    /**
     * prove() with a stage-boundary hook: @p keep_going is called at
     * each ProveStage boundary and may return false to abandon the
     * proof there (nullopt). With an empty hook this IS prove() — the
     * same statements in the same order — so completed proofs are
     * bit-identical either way.
     */
    std::optional<Proof>
    proveInterruptible(const ConstraintTables<F> &tables,
                       std::span<const F> public_inputs,
                       const ProveStageHook &keep_going) const
    {
        if (tables.n_vars != n_vars_)
            panic("TableSnark::prove: tables have %u vars, system built "
                  "for %u",
                  tables.n_vars, n_vars_);

        Transcript transcript(Gate::kDomain);
        absorbStatement(transcript, public_inputs);

        // 1. Commit (encoder + Merkle modules).
        auto st_a = pcs_.commit(tables.a, exec_);
        if (keep_going && !keep_going(ProveStage::Encode))
            return std::nullopt;
        auto st_b = pcs_.commit(tables.b, exec_);
        auto st_c = pcs_.commit(tables.c, exec_);
        if (keep_going && !keep_going(ProveStage::Merkle))
            return std::nullopt;
        transcript.absorbDigest("com.a", st_a.commitment.root);
        transcript.absorbDigest("com.b", st_b.commitment.root);
        transcript.absorbDigest("com.c", st_c.commitment.root);

        // 2. Gate challenge.
        std::vector<F> tau = challenges(transcript);
        if (keep_going && !keep_going(ProveStage::FiatShamir))
            return std::nullopt;

        // 3. Gate sum-check over eq * gate(a, b, c).
        Proof proof;
        std::vector<F> point;
        {
            std::vector<F> eq = eqTable(tau);
            std::vector<F> a = tables.a;
            std::vector<F> b = tables.b;
            std::vector<F> c = tables.c;
            proof.*Gate::template kSumcheck<F> =
                proveGateSumcheckFs<F, Gate>(eq, a, b, c, transcript,
                                             Gate::kLabels, &point, exec_);
        }
        if (keep_going && !keep_going(ProveStage::Sumcheck))
            return std::nullopt;

        // 4. Open the tables at the final point.
        proof.va = pcs_.evaluate(st_a, point);
        proof.vb = pcs_.evaluate(st_b, point);
        proof.vc = pcs_.evaluate(st_c, point);
        transcript.absorbField("open.va", proof.va);
        transcript.absorbField("open.vb", proof.vb);
        transcript.absorbField("open.vc", proof.vc);

        proof.open_a = pcs_.open(st_a, point, transcript, exec_);
        proof.open_b = pcs_.open(st_b, point, transcript, exec_);
        proof.open_c = pcs_.open(st_c, point, transcript, exec_);

        proof.commit_a = st_a.commitment;
        proof.commit_b = st_b.commitment;
        proof.commit_c = st_c.commitment;
        return proof;
    }

    /** Verify a proof against the public inputs. */
    bool
    verify(const Proof &proof, std::span<const F> public_inputs) const
    {
        Transcript transcript(Gate::kDomain);
        absorbStatement(transcript, public_inputs);
        transcript.absorbDigest("com.a", proof.commit_a.root);
        transcript.absorbDigest("com.b", proof.commit_b.root);
        transcript.absorbDigest("com.c", proof.commit_c.root);
        std::vector<F> tau = challenges(transcript);

        // Sum-check verification: the claimed total is zero.
        auto verdict = verifyGateSumcheckFs<F, Gate>(
            F::zero(), proof.*Gate::template kSumcheck<F>, transcript,
            Gate::kLabels);
        if (!verdict.ok || verdict.point.size() != n_vars_)
            return false;
        const std::vector<F> &point = verdict.point;

        // Final algebraic check against the claimed openings.
        if (eqEval(tau, point) * Gate::eval(proof.va, proof.vb, proof.vc) !=
            verdict.final_claim)
            return false;

        transcript.absorbField("open.va", proof.va);
        transcript.absorbField("open.vb", proof.vb);
        transcript.absorbField("open.vc", proof.vc);
        return pcs_.verify(proof.commit_a, point, proof.va, proof.open_a,
                           transcript) &&
               pcs_.verify(proof.commit_b, point, proof.vb, proof.open_b,
                           transcript) &&
               pcs_.verify(proof.commit_c, point, proof.vc, proof.open_c,
                           transcript);
    }

  private:
    void
    absorbStatement(Transcript &transcript,
                    std::span<const F> public_inputs) const
    {
        uint8_t n = static_cast<uint8_t>(n_vars_);
        transcript.absorb("n_vars", std::span<const uint8_t>(&n, 1));
        for (const F &x : public_inputs)
            transcript.absorbField("public", x);
    }

    /** The gate challenge tau, one coordinate per table variable. */
    std::vector<F>
    challenges(Transcript &transcript) const
    {
        std::vector<F> tau(n_vars_);
        for (auto &t : tau)
            t = transcript.template challengeField<F>("tau");
        return tau;
    }

    unsigned n_vars_;
    TensorPcs<F> pcs_;
    const exec::ExecContext *exec_ = nullptr;
};

} // namespace bzk

#endif // BZK_CORE_TABLESNARK_H_
