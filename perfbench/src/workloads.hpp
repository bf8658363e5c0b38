// The three user journeys.  Each runs its set-up several times, then a
// closed-loop measured phase through the public product API, checks
// the outputs, and fills the report: end-to-end metrics untraced, or
// per-layer metrics (stage replay under spans) when options.trace.
#pragma once

#include "harness.hpp"

namespace perfbench {

/// Participants upload signed, encrypted records over TCP into a fresh
/// durable service per pass.
void RunIngest(const Options& options, Report& report, Tracer& tracer);

/// The operator runs one-epoch training rounds, then fingerprints.
void RunTrain(const Options& options, Report& report, Tracer& tracer);

/// Auditors investigate probes over TCP, singly and in batches.
void RunInvestigate(const Options& options, Report& report, Tracer& tracer);

}  // namespace perfbench
