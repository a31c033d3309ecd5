// Seeded input generation for the four workloads. Everything here is a
// pure function of the seed: two calls with the same seed build identical
// catalogs, dependency sets and queries (so equal canonical keys in the same
// order), and the engine under test receives only what these functions
// return.
#ifndef PERFBENCH_INPUTS_H_
#define PERFBENCH_INPUTS_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "cq/query.h"
#include "deps/dependency_set.h"
#include "schema/catalog.h"
#include "symbols/symbol_table.h"

namespace perfbench {

using cqchase::Catalog;
using cqchase::ConjunctiveQuery;
using cqchase::DependencySet;
using cqchase::SymbolTable;

// One containment question Σ ⊨ Q ⊆∞ Q' plus what the benchmark knows about
// its answer. `expected` is 1 / 0 when the generator planted the verdict and
// -1 when the oracle engine decides it after the timed phase.
struct Task {
  uint32_t id = 0;  // index in its pool; identifies the task to the oracle
  std::shared_ptr<const ConjunctiveQuery> q;
  std::shared_ptr<const ConjunctiveQuery> q_prime;
  std::shared_ptr<const DependencySet> deps;
  int8_t expected = -1;
  bool want_certificate = false;
};

// Catalog and symbol table at stable addresses (engines keep pointers).
struct Universe {
  std::unique_ptr<Catalog> catalog = std::make_unique<Catalog>();
  std::unique_ptr<SymbolTable> symbols = std::make_unique<SymbolTable>();
};

// --- warm_wide / schema_evolve -----------------------------------------------

// `chains` independent IND chains A_c[x] ⊆ B_c[x] ⊆ C_c[x] in one Σ, with two
// tasks per chain: tasks[2c] (A_c ⊆ C_c, contained through both chain INDs)
// and tasks[2c + 1] (C_c ⊆ A_c, never contained). The seed permutes the
// relation ids and the order Σ lists its INDs.
struct ChainInputs {
  Universe u;
  std::shared_ptr<const DependencySet> full;
  std::vector<cqchase::InclusionDependency> bc;  // chain c's B→C IND
  std::vector<Task> tasks;
};

ChainInputs MakeChainInputs(uint64_t seed, size_t chains);

// `full` without chain c's B→C IND.
DependencySet WithoutBc(const ChainInputs& in, size_t chain);

// --- cold_mixed ----------------------------------------------------------------

// Tasks on small Σ (≤ 8 dependencies) drawn round-robin across the decidable
// Σ classes kEmpty, kFdOnly, kIndOnlyW1, kKeyBased and kAcyclicInd, eight
// tasks per Σ, every task a distinct canonical key. Half are planted
// contained; on kIndOnlyW1 half the Q' have one conjunct (the streaming
// route). Roughly 1 task in 16 asks for a certificate, on certifiable Σ
// only. `warmup` tasks come from the same distribution but a disjoint seed
// stream.
struct PoolInputs {
  Universe u;
  std::vector<Task> tasks;
  std::vector<Task> warmup;
};

PoolInputs MakeColdMixedInputs(uint64_t seed, size_t tasks, size_t warmup);

// --- fleet_rw ------------------------------------------------------------------

// One fixed narrow Σ (IND-only, width 1) and three disjoint task sets: `local`
// (decided by the measured engine during set-up), `peer` (decided by the
// peer engine during set-up) and `fresh` (first asked in the timed phase).
// Half of each set is planted contained.
struct FleetInputs {
  Universe u;
  std::shared_ptr<const DependencySet> deps;
  std::vector<Task> local;
  std::vector<Task> peer;
  std::vector<Task> fresh;
};

FleetInputs MakeFleetInputs(uint64_t seed, size_t local, size_t peer,
                            size_t fresh);

}  // namespace perfbench

#endif  // PERFBENCH_INPUTS_H_
