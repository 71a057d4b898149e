// Faithful TPC-D data for the end-to-end benchmark.
//
// Row counts follow MakeTpcdCatalog(sf). Primary keys are dense and unique,
// foreign keys are drawn from the referenced table's key range, and every
// lineitem (partkey, suppkey) pair is one of its part's four partsupp rows
// (the TPC-H supplier formula), so Q9's composite join matches. Filtered
// string columns use the TPC-D vocabularies (region and nation names, market
// segments, return flags, part types), so the templates' string predicates
// select rows. Doubles are integer-valued, so sums are exact in any order.
//
// The generator keeps plain copies of the columns the SQL templates read;
// reference.cc answers the templates from those copies with its own loops.

#ifndef MQOBENCH_TPCD_DATA_H_
#define MQOBENCH_TPCD_DATA_H_

#include <cstdint>
#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "exec/dataset.h"

namespace mqobench {

/// Plain columns the reference answers read. Key k of a dense-keyed table is
/// row k - 1 (region and nation keys start at 0, so key k is row k).
struct TpcdColumns {
  std::vector<std::string> r_name;
  std::vector<std::string> n_name;
  std::vector<int64_t> n_regionkey;
  std::vector<int64_t> s_nationkey;
  std::vector<std::string> p_type;
  std::vector<int64_t> p_size;
  std::vector<int64_t> ps_partkey, ps_suppkey;
  std::vector<int64_t> c_nationkey;
  std::vector<std::string> c_mktsegment;
  std::vector<int64_t> o_custkey, o_orderdate, o_shippriority;
  std::vector<int64_t> l_orderkey, l_partkey, l_suppkey, l_shipdate;
  std::vector<double> l_quantity, l_extendedprice;
  std::vector<std::string> l_returnflag, l_linestatus;
};

struct TpcdDatabase {
  mqo::DataSet data;
  TpcdColumns cols;
  size_t total_rows = 0;
};

/// Generates the database for `catalog` (built by MakeTpcdCatalog(sf)).
/// The same seed gives the same database. Fails when a catalog column has
/// no generator, or a generated key is not unique.
mqo::Result<TpcdDatabase> GenerateTpcd(const mqo::Catalog& catalog,
                                       double sf, uint64_t seed);

/// "YYYY-MM-DD" of a day number (0 = 1992-01-01, as mqo::DateToDays).
std::string DaysToIso(int64_t days);

/// The vocabularies of the filtered string columns.
const std::vector<std::string>& RegionNames();
const std::vector<std::string>& NationNames();
const std::vector<std::string>& MarketSegments();
const std::vector<std::string>& PartTypes();

}  // namespace mqobench

#endif  // MQOBENCH_TPCD_DATA_H_
