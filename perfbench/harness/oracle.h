// Brute-force reference monitor. For a SELECT without sub-queries under a
// purpose it derives the query's action signatures, keeps in a clone of
// the database only the tuples whose policy complies with every signature
// over their table, and runs the ORIGINAL query unenforced over that clone.
// It shares no code with the enforcement fast paths (rewriter, verdict
// memo, zone maps, static verdicts, indexes, server cache), so agreeing
// with it is evidence those paths are correct.
#ifndef PERFBENCH_HARNESS_ORACLE_H_
#define PERFBENCH_HARNESS_ORACLE_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/catalog.h"
#include "engine/database.h"
#include "engine/exec.h"
#include "util/result.h"

namespace perfbench {

class ReferenceMonitor {
 public:
  /// `db` and `catalog` must stay unchanged while the monitor is used,
  /// except through Invalidate().
  ReferenceMonitor(const aapac::engine::Database* db,
                   const aapac::core::AccessControlCatalog* catalog)
      : db_(db), catalog_(catalog) {}

  /// Key of the compliant clone `sql` needs under `purpose_id`; statements
  /// with equal keys share one clone, so callers batch by key. Fails with
  /// kUnsupported for statements the oracle does not cover (sub-queries, a
  /// protected table under two bindings).
  aapac::Result<std::string> CloneKey(const std::string& sql,
                                      const std::string& purpose_id);

  /// The reference result of `sql` under `purpose_id`.
  aapac::Result<aapac::engine::ResultSet> Execute(
      const std::string& sql, const std::string& purpose_id);

  /// Drops the cached clone (call after the policies or data change).
  void Invalidate() { clone_key_.clear(); clone_.reset(); }

 private:
  using MaskSets = std::map<std::string, std::vector<std::string>>;

  aapac::Result<MaskSets> Masks(const std::string& sql,
                                const std::string& purpose_id) const;
  std::unique_ptr<aapac::engine::Database> BuildClone(
      const MaskSets& masks) const;

  const aapac::engine::Database* db_;
  const aapac::core::AccessControlCatalog* catalog_;
  std::string clone_key_;
  std::unique_ptr<aapac::engine::Database> clone_;
};

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_ORACLE_H_
