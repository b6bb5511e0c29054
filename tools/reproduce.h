// `vodctl reproduce`: the paper's evaluation artifacts, one table row each.

#ifndef VOD_TOOLS_REPRODUCE_H_
#define VOD_TOOLS_REPRODUCE_H_

#include "common/status.h"

namespace vod {

/// `vodctl reproduce [--artifact=NAME] [--csv]`: prints one paper artifact
/// (Fig 7(a)–(d), Fig 8, Examples 1–2, Fig 9), or with the default
/// `--artifact=all` all eight concatenated in DESIGN.md §4's order. Every
/// artifact runs at fixed constants, so its output is a function of the
/// build alone. An unknown artifact name is an InvalidArgument.
Result<int> ReproduceCommand(int argc, char** argv);

}  // namespace vod

#endif  // VOD_TOOLS_REPRODUCE_H_
