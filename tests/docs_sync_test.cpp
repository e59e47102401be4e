/** @file Keeps docs/strategies.md in sync with the strategy enums, and
 * docs/observability.md with the pass counters.
 *
 * docs/strategies.md documents every strategy axis (one `## \`axis\``
 * section per axis, one `| \`value\` |` table row per value) and
 * promises the names cannot drift from `strategyCatalog()` — this test
 * is that promise, in both directions: every catalog axis/value must
 * be documented, and every documented axis/value must exist in the
 * catalog. docs/observability.md must name every PassCounter. The CI
 * docs-check job runs it next to the dead-link checker.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "compiler/profile.hpp"
#include "compiler/strategies.hpp"

namespace powermove {
namespace {

std::string
docPath(const std::string &name)
{
#ifdef POWERMOVE_SOURCE_DIR
    return std::string(POWERMOVE_SOURCE_DIR) + "/docs/" + name;
#else
    // Fallback for ad-hoc builds: relative to the build directory.
    return "../docs/" + name;
#endif
}

/** `## \`axis\`` sections -> the backticked first-column table cells. */
std::map<std::string, std::vector<std::string>>
parseDocumentedAxes(std::istream &in)
{
    std::map<std::string, std::vector<std::string>> axes;
    std::string line;
    std::string current;
    while (std::getline(in, line)) {
        if (line.rfind("## `", 0) == 0) {
            const auto close = line.find('`', 4);
            if (close == std::string::npos)
                continue;
            current = line.substr(4, close - 4);
            axes[current]; // a section with no rows still registers
            continue;
        }
        if (current.empty() || line.rfind("| `", 0) != 0)
            continue;
        const auto close = line.find('`', 3);
        if (close == std::string::npos)
            continue;
        axes[current].push_back(line.substr(3, close - 3));
    }
    return axes;
}

TEST(DocsSyncTest, StrategiesDocMatchesCatalogBothWays)
{
    std::ifstream in(docPath("strategies.md"));
    ASSERT_TRUE(in) << "cannot open " << docPath("strategies.md");
    const auto documented = parseDocumentedAxes(in);

    const auto catalog = strategyCatalog();
    ASSERT_FALSE(catalog.empty());

    std::set<std::string> catalog_axes;
    for (const StrategyCatalogEntry &entry : catalog) {
        catalog_axes.insert(std::string(entry.dimension));
        const auto it = documented.find(std::string(entry.dimension));
        ASSERT_NE(it, documented.end())
            << "axis '" << entry.dimension
            << "' is missing from docs/strategies.md";

        const std::set<std::string> doc_values(it->second.begin(),
                                               it->second.end());
        for (const std::string_view value : entry.values) {
            EXPECT_TRUE(doc_values.count(std::string(value)))
                << "value '" << value << "' of axis '" << entry.dimension
                << "' is missing from docs/strategies.md";
        }
        for (const std::string &value : it->second) {
            bool known = false;
            for (const std::string_view catalog_value : entry.values)
                known = known || catalog_value == value;
            EXPECT_TRUE(known)
                << "docs/strategies.md documents unknown value '" << value
                << "' for axis '" << entry.dimension << "'";
        }
        // Defaults first is the documented ordering contract.
        ASSERT_FALSE(it->second.empty());
        EXPECT_EQ(it->second.front(), entry.values.front())
            << "axis '" << entry.dimension
            << "': the catalog default must be the first documented row";
    }

    for (const auto &[axis, values] : documented) {
        EXPECT_TRUE(catalog_axes.count(axis))
            << "docs/strategies.md documents unknown axis '" << axis << "'";
        (void)values;
    }
}

TEST(DocsSyncTest, ObservabilityDocNamesEveryPassCounter)
{
    std::ifstream in(docPath("observability.md"));
    ASSERT_TRUE(in) << "cannot open " << docPath("observability.md");
    std::ostringstream text;
    text << in.rdbuf();
    for (const PassCounterInfo &info : kPassCounters) {
        std::string quoted = "`";
        quoted += info.name;
        quoted += '`';
        EXPECT_NE(text.str().find(quoted), std::string::npos)
            << "counter " << quoted << " is missing from docs/observability.md";
    }
}

} // namespace
} // namespace powermove
