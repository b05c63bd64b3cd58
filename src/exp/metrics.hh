/**
 * @file
 * Derived-metric math shared by the experiment reports: speedups,
 * geometric means and Jain's fairness index.
 */

#ifndef GPUWALK_EXP_METRICS_HH
#define GPUWALK_EXP_METRICS_HH

#include <vector>

#include "system/system.hh"

namespace gpuwalk::exp {

/**
 * base runtime / test runtime: > 1 means @p test is faster. A zero
 * runtime on either side is a degenerate point: warns and returns NaN
 * (printed as-is in tables, null in JSON) instead of aborting a sweep.
 */
double speedup(const system::RunStats &test,
               const system::RunStats &base);

/**
 * Geometric mean. Empty input or any non-positive/NaN value is
 * degenerate: warns and returns NaN instead of aborting a sweep.
 */
double geomean(const std::vector<double> &values);

/**
 * Jain's fairness index over per-tenant allocations (slowdowns in the
 * QoS experiments): (Σx)² / (n·Σx²), 1 = perfectly fair, 1/n =
 * maximally unfair. Empty input or any non-positive/NaN value is
 * degenerate: warns and returns NaN instead of aborting a sweep.
 */
double jainIndex(const std::vector<double> &values);

} // namespace gpuwalk::exp

#endif // GPUWALK_EXP_METRICS_HH
