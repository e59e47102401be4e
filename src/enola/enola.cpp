#include "enola/enola.hpp"

#include <chrono>

#include "collsched/multi_aod.hpp"
#include "common/error.hpp"
#include "enola/mis.hpp"
#include "isa/validator.hpp"


namespace powermove {

EnolaCompiler::EnolaCompiler(const Machine &machine, EnolaOptions options)
    : machine_(machine), options_(options)
{
    if (options_.num_aods == 0)
        fatal("Enola requires at least one AOD array");
}

CompileResult
EnolaCompiler::compile(const Circuit &circuit) const
{
    const auto start = std::chrono::steady_clock::now();

    Rng rng(options_.seed);
    std::vector<SiteId> home;
    if (options_.use_storage) {
        // Fig. 3e: the home layout sits entirely in the storage zone.
        const auto storage = machine_.storageSites();
        if (circuit.numQubits() > storage.size())
            fatal("storage zone too small for the Enola home layout");
        home.assign(storage.begin(),
                    storage.begin() +
                        static_cast<std::ptrdiff_t>(circuit.numQubits()));
    } else if (options_.anneal_placement) {
        home = annealPlacement(machine_, circuit, rng, options_.placement);
    } else {
        // Row-major home layout (paper Fig. 3e).
        if (circuit.numQubits() > machine_.numComputeSites())
            fatal("compute zone too small for the Enola home layout");
        home.resize(circuit.numQubits());
        for (QubitId q = 0; q < circuit.numQubits(); ++q)
            home[q] = static_cast<SiteId>(q);
    }

    MachineSchedule schedule(machine_, home);

    std::size_t num_stages = 0;
    std::size_t num_coll_moves = 0;
    std::size_t block_index = 0;

    for (const auto &moment : circuit.moments()) {
        if (const auto *one_q = std::get_if<OneQLayer>(&moment)) {
            schedule.addOneQLayer(one_q->gates.size(),
                                  one_q->depth(circuit.numQubits()));
            continue;
        }
        const auto &block = std::get<CzBlock>(moment);
        // Enola's gate scheduling: stages via repeated MIS extraction.
        const auto stages = partitionStagesByMis(block, circuit.numQubits());

        const auto emit_leg = [&](const std::vector<QubitMove> &leg) {
            std::vector<CollMove> groups;
            if (options_.movement == EnolaMovement::Mis) {
                groups = groupMovesByMis(machine_, leg);
            } else {
                groups.reserve(leg.size());
                for (const auto &move : leg)
                    groups.push_back(CollMove{{move}});
            }
            num_coll_moves += groups.size();
            for (auto &batch :
                 batchForAods(std::move(groups), options_.num_aods)) {
                schedule.addMoveBatch(std::move(batch));
            }
        };

        for (const auto &stage : stages) {
            // Out leg. Without storage, the lower-id endpoint of each
            // gate travels from its home site to its partner's home
            // site. With storage (Fig. 3f), *both* endpoints shuttle
            // from their storage homes to a compute interaction site.
            std::vector<QubitMove> out_leg;
            out_leg.reserve(stage.gates.size() * 2);
            if (options_.use_storage) {
                SiteId interaction_site = 0;
                for (const auto &gate : stage.gates) {
                    const auto canonical = gate.canonical();
                    out_leg.push_back(
                        {canonical.a, home[canonical.a], interaction_site});
                    out_leg.push_back(
                        {canonical.b, home[canonical.b], interaction_site});
                    ++interaction_site;
                }
            } else {
                for (const auto &gate : stage.gates) {
                    const auto canonical = gate.canonical();
                    out_leg.push_back(
                        {canonical.a, home[canonical.a], home[canonical.b]});
                }
            }
            emit_leg(out_leg);

            schedule.addRydberg(stage.gates, block_index);
            ++num_stages;

            // Return leg: revert to the home layout (paper Fig. 3c).
            std::vector<QubitMove> back_leg;
            back_leg.reserve(out_leg.size());
            for (const auto &move : out_leg)
                back_leg.push_back({move.qubit, move.to, move.from});
            emit_leg(back_leg);
        }
        ++block_index;
    }

    const auto stop = std::chrono::steady_clock::now();
    const double elapsed_us =
        std::chrono::duration<double, std::micro>(stop - start).count();

    // No pass_profiles: the baseline is not the pass pipeline.
    CompileResult result{std::move(schedule), {}, Duration::micros(elapsed_us),
                         num_stages, num_coll_moves, {}};
    result.metrics = validateAgainstCircuit(result.schedule, circuit);
    return result;
}

} // namespace powermove
