#include "core/Protocols.h"

#include "core/HighDegreeSnark.h"
#include "core/Serialize.h"
#include "core/Snark.h"
#include "util/Log.h"

namespace bzk {

namespace {

template <typename Gate>
std::optional<std::vector<uint8_t>>
proveWith(const ConstraintTables<Fr> &tables, uint64_t seed,
          size_t column_openings, const exec::ExecContext *exec,
          const ProveStageHook &hook)
{
    TableSnark<Fr, Gate> snark(tables.n_vars, seed, column_openings);
    snark.setExec(exec);
    auto proof = snark.proveInterruptible(tables, {}, hook);
    if (!proof)
        return std::nullopt;
    return serializeTableProof<Gate, Fr>(*proof);
}

template <typename Gate>
bool
verifyWith(std::span<const uint8_t> bytes, unsigned n_vars, uint64_t seed,
           size_t column_openings, std::span<const Fr> public_inputs)
{
    auto proof = deserializeTableProof<Gate, Fr>(bytes);
    return proof && TableSnark<Fr, Gate>(n_vars, seed, column_openings)
                        .verify(*proof, public_inputs);
}

template <typename Gate>
std::optional<ProofShape>
shapeOf(std::span<const uint8_t> bytes)
{
    auto proof = deserializeTableProof<Gate, Fr>(bytes);
    if (!proof)
        return std::nullopt;
    const auto &sc = (*proof).*Gate::template kSumcheck<Fr>;
    return ProofShape{proof->commit_a.n_vars, sc.rounds.size(),
                      sc.rounds.empty() ? 0 : sc.rounds[0].size(),
                      proof->open_a.columns.size()};
}

template <typename Gate>
constexpr Protocol
row(sched::ProtocolKind kind,
    ConstraintTables<Fr> (*instance)(unsigned, Rng &),
    SystemWorkModel (*work_model)(unsigned, uint64_t))
{
    Protocol p{};
    p.kind = kind;
    p.proof_tag = Gate::kProofTag;
    p.instance = instance;
    p.prove = proveWith<Gate>;
    p.verify = verifyWith<Gate>;
    p.shape = shapeOf<Gate>;
    p.work_model = work_model;
    return p;
}

/** Indexed by ProtocolKind: row i describes kind i. */
const Protocol kProtocols[sched::kNumProtocolKinds] = {
    row<MulGate>(sched::ProtocolKind::TableCommit, randomInstance,
                 systemWorkModel),
    row<Pow4Gate>(sched::ProtocolKind::HighDegreeGate,
                  highDegreeInstance<Fr>, highDegreeWorkModel),
};

} // namespace

const Protocol &
protocol(sched::ProtocolKind kind)
{
    auto i = static_cast<size_t>(kind);
    if (i >= sched::kNumProtocolKinds)
        panic("protocol: unknown kind %zu", i);
    return kProtocols[i];
}

const Protocol *
protocolByTag(uint8_t tag)
{
    for (const Protocol &p : kProtocols)
        if (p.proof_tag == tag)
            return &p;
    return nullptr;
}

} // namespace bzk
