// Named machine-configuration and workload registries — the single source
// of truth the experiment specs reference, replacing the per-binary
// copy-pasted config tables the paper benches used to carry.
//
// The built-ins (the three Table 1 machines, the six NAS-signature
// kernels) are installed on first use; tests and future experiments can
// register additional entries at runtime.
#pragma once

#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "sim/machine.hpp"
#include "workloads/nas.hpp"

namespace hm::driver {

using MachineFactory = std::function<MachineConfig()>;
using WorkloadFactory = std::function<Workload(WorkloadScale)>;

/// Register a named machine/workload.  Re-registering a name replaces the
/// previous entry (tests use this).  Thread-safe.
void register_machine(std::string name, MachineFactory make);
void register_workload(std::string name, WorkloadFactory make);

bool has_machine(std::string_view name);
bool has_workload(std::string_view name);

/// Construct by name; throws std::out_of_range for unknown names.
MachineConfig make_machine(std::string_view name);
Workload make_workload(std::string_view name, WorkloadScale scale);

/// Registered names in registration order (built-ins first, paper order).
std::vector<std::string> machine_names();
std::vector<std::string> workload_names();

/// Registry name of a built-in MachineKind ("hybrid_coherent", ...).
const char* machine_name(MachineKind kind);

}  // namespace hm::driver
