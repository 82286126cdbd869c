// Textual Quality-Contract specs, for tools, config files and examples.
//
// Grammar (whitespace-separated fields after the shape):
//
//   spec  := shape field*
//   shape := "step" | "linear"
//   field := "qos=" money "@" duration     (QoS: profit @ rt cutoff)
//          | "qod=" money "@" number       (QoD: profit @ staleness cutoff)
//          | "mode=" ("independent" | "dependent")
//
//   money    := float, optional leading '$'
//   duration := float, optional unit "ms" (default) or "s"
//
// Profits must be non-negative and both cutoffs positive.
//
// Examples:
//   "step qos=$1@50ms qod=$2@1"                 (Figure 2 of the paper)
//   "linear qos=2@0.05s qod=1@2 mode=dependent" (Figure 3, QoS-dependent)
//
// The shape applies to both dimensions. An omitted dimension states no
// preference: zero profit, with a zero cutoff.

#ifndef WEBDB_QC_QC_SPEC_H_
#define WEBDB_QC_QC_SPEC_H_

#include <string>

#include "qc/quality_contract.h"

namespace webdb {

// Parses `spec` into `qc`. On failure returns false and, if `error` is
// non-null, stores a human-readable message; `qc` is left unspecified.
bool ParseQcSpec(const std::string& spec, QualityContract* qc,
                 std::string* error = nullptr);

}  // namespace webdb

#endif  // WEBDB_QC_QC_SPEC_H_
