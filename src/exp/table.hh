/**
 * @file
 * Fixed-width console-table formatting that mirrors the paper's
 * figures, and the standard experiment banner. The Report module composes
 * these; experiments that need ad-hoc output can use them directly.
 */

#ifndef GPUWALK_EXP_TABLE_HH
#define GPUWALK_EXP_TABLE_HH

#include <iosfwd>
#include <string>
#include <vector>

#include "system/system_config.hh"

namespace gpuwalk::exp {

/** Fixed-width console table, used by every figure experiment. */
class TablePrinter
{
  public:
    /** @param columns Header labels; first column is left-aligned. */
    explicit TablePrinter(std::vector<std::string> columns,
                          unsigned width = 14);

    void printHeader(std::ostream &os) const;
    void printRow(std::ostream &os,
                  const std::vector<std::string> &cells) const;
    void printRule(std::ostream &os) const;

    /** Formats @p v with @p precision decimals. */
    static std::string fmt(double v, int precision = 3);

  private:
    std::vector<std::string> columns_;
    unsigned width_;
};

/** Shorthand for TablePrinter::fmt. */
inline std::string
fmt(double v, int precision = 3)
{
    return TablePrinter::fmt(v, precision);
}

/** Prints the standard experiment banner (figure id + config summary). */
void printBanner(std::ostream &os, const std::string &experiment_id,
                 const std::string &description,
                 const system::SystemConfig &cfg);

} // namespace gpuwalk::exp

#endif // GPUWALK_EXP_TABLE_HH
