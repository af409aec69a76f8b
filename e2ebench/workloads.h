// The three workloads (README.md in this directory explains why each).
#ifndef E2EBENCH_WORKLOADS_H_
#define E2EBENCH_WORKLOADS_H_

#include "common.h"

namespace e2e {

Report RunAnalytic(const Options& opt);
Report RunServe(const Options& opt);
Report RunProtocolSim(const Options& opt);

}  // namespace e2e

#endif  // E2EBENCH_WORKLOADS_H_
