/**
 * @file
 * Experiment reporting: the paper-style fixed-width console tables the
 * experiments have always printed, plus a structured JSON rendition of the
 * same sweep (per-run statistics, derived summary scalars, config
 * fingerprint, git revision, wall time) for machine consumption.
 */

#ifndef GPUWALK_EXP_REPORT_HH
#define GPUWALK_EXP_REPORT_HH

#include <deque>
#include <iosfwd>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "exp/runner.hh"
#include "exp/table.hh"

namespace gpuwalk::exp {

/**
 * Collects one experiment's output — tables, notes, summary scalars —
 * then renders it as console text and/or structured JSON.
 */
class Report
{
  public:
    /** A titled fixed-width table under construction. */
    struct Table
    {
        std::string title;                 ///< "" = untitled
        std::vector<std::string> columns;
        unsigned width = 14;

        struct Row
        {
            std::vector<std::string> cells;
            bool rule = false;             ///< horizontal separator
        };
        std::vector<Row> rows;

        void addRow(std::vector<std::string> cells);
        /** Inserts a horizontal rule (e.g. before a GEOMEAN row). */
        void addRule();
    };

    /** Report with the standard config banner. */
    Report(std::string id, std::string description,
           const system::SystemConfig &cfg);

    /** Report without a config banner (e.g. Table II). */
    Report(std::string id, std::string description);

    /** Adds a table; the reference stays valid for the Report's life. */
    Table &addTable(std::vector<std::string> columns,
                    std::string title = "", unsigned width = 14);

    /** Free-form paragraph printed after the tables. */
    void addNote(std::string text);

    /** Derived scalar (geomean speedup, ...) for the JSON summary. */
    void addSummary(const std::string &key, double value);

    /** Banner + tables + notes, matching the historical experiment output. */
    void render(std::ostream &os) const;

    /** The sweep the tables were computed from; its runs go into
     *  the JSON (a report without one has no runs). */
    void setRuns(SweepResult result);

    /**
     * Structured JSON: experiment identity, git sha, config
     * fingerprint, per-run stats, summary scalars, and the rendered
     * tables as data.
     */
    void writeJson(std::ostream &os) const;

    /** writeJson to @p path; fatal() if the file cannot be opened. */
    void writeJsonFile(const std::string &path) const;

  private:
    std::string id_;
    std::string description_;
    bool have_cfg_ = false;
    system::SystemConfig cfg_;
    std::deque<Table> tables_;  // deque: stable refs across addTable
    std::vector<std::string> notes_;
    std::vector<std::pair<std::string, double>> summary_;
    std::optional<SweepResult> result_;
};

/** FNV-1a hash of the config's printed form, as a hex string. */
std::string configFingerprint(const system::SystemConfig &cfg);

/** Git revision baked in at build time ("unknown" outside a repo). */
std::string gitSha();

/** One run's statistics as a JSON object (shared with the tests:
 *  byte-identical stats <=> byte-identical JSON). */
void statsJson(std::ostream &os, const system::RunStats &stats);
std::string statsJsonString(const system::RunStats &stats);

} // namespace gpuwalk::exp

#endif // GPUWALK_EXP_REPORT_HH
