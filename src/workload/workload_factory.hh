/**
 * @file
 * Named workload presets.
 *
 * - 45 "QMM-like" server workloads (qmm_00 .. qmm_44) standing in for
 *   the Qualcomm CVP-1/IPC-1 traces. Parameters vary deterministically
 *   with the index so the suite spans the iSTLB MPKI range the paper
 *   reports (>= 0.5 up to ~2.5) with diverse footprints, run lengths
 *   and phase behaviour.
 * - SPEC-like workloads with small instruction footprints (Figure 3's
 *   contrast suite; iSTLB MPKI well below the 0.5 threshold).
 * - Java-server-like workloads named after the DaCapo / Renaissance
 *   applications of Figure 2.
 */

#ifndef MORRIGAN_WORKLOAD_WORKLOAD_FACTORY_HH
#define MORRIGAN_WORKLOAD_WORKLOAD_FACTORY_HH

#include <optional>
#include <string>
#include <vector>

#include "workload/server_workload.hh"

namespace morrigan
{

/** Number of QMM-like server workloads in the suite. */
constexpr unsigned numQmmWorkloads = 45;

/** Number of SPEC-like workloads. */
constexpr unsigned numSpecWorkloads = 10;

/** Parameters of QMM-like workload @p index (0..44). */
ServerWorkloadParams qmmWorkloadParams(unsigned index);

/** Parameters of SPEC-like workload @p index (0..9). */
ServerWorkloadParams specWorkloadParams(unsigned index);

/** Names of the Java server workloads of Figure 2. */
const std::vector<std::string> &javaWorkloadNames();

/** Parameters of Java-like workload @p index. */
ServerWorkloadParams javaWorkloadParams(unsigned index);

/**
 * Resolve a workload name of the form qmm_NN, spec_NN or java:NAME
 * (the spelling of the CLI --workload flag and of the repro commands
 * jobReproCommand() writes); nullopt for unknown names or indices.
 */
std::optional<ServerWorkloadParams>
parseWorkloadName(const std::string &name);

} // namespace morrigan

#endif // MORRIGAN_WORKLOAD_WORKLOAD_FACTORY_HH
