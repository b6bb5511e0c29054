// `vodctl reproduce`: the paper's evaluation artifacts, and this repo's
// ablations and extensions of them, one table row each.

#ifndef VOD_TOOLS_REPRODUCE_H_
#define VOD_TOOLS_REPRODUCE_H_

#include "common/status.h"
#include "common/table.h"

namespace vod {

/// `vodctl reproduce [--artifact=NAME] [--csv]`: prints one row of the
/// artifact table (the paper's Fig 7(a)–(d), Fig 8, Examples 1–2 and Fig 9,
/// then the ablations and extensions X1–X10), or with the default
/// `--artifact=all` all eighteen concatenated in DESIGN.md §4's order.
/// Every row runs at fixed constants, so its output is a function of the
/// build alone. An unknown artifact name is an InvalidArgument; a row whose
/// experiment checks a law returns the violated law as an Internal error.
Result<int> ReproduceCommand(int argc, char** argv);

/// Prints `table` to stdout: CSV when `csv`, else aligned text.
void RenderTable(const TableWriter& table, bool csv);

// The ablation and extension rows (DESIGN.md §4 X1–X10), defined in
// tools/reproduce_extensions.cc. Each prints its tables to stdout.
Status PrintInteractivity(bool csv);  // X1
Status PrintPopulation(bool csv);     // X2
Status PrintSpeed(bool csv);          // X3
Status PrintPiggyback(bool csv);      // X4
Status PrintBlocking(bool csv);       // X5
Status PrintDurationShape(bool csv);  // X6
Status PrintDiurnal(bool csv);        // X7
Status PrintAbandonment(bool csv);    // X8
/// X9; Internal when the 1-, 4- and 8-shard reports differ or a request
/// ledger does not close.
Status PrintFailures(bool csv);
/// X10; Internal when the zero-drift controller is not quiescent or does
/// not dominate static sizing under the flash crowd.
Status PrintDrift(bool csv);

}  // namespace vod

#endif  // VOD_TOOLS_REPRODUCE_H_
