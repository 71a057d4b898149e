// The benchmark's SQL templates and their reference answers.
//
// Each template renders to SQL for MqoSession::Run and is answered a second
// time here, with plain loops and hash maps over the generator's own columns,
// never through the program's parser, optimizer or executors. Results are
// compared with columns matched by name and rows sorted by mqo::ValueLess,
// which is bag equality.

#ifndef MQOBENCH_REFERENCE_H_
#define MQOBENCH_REFERENCE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "storage/named_rows.h"
#include "tpcd_data.h"

namespace mqobench {

enum class Template {
  // The paper's batched TPC-D templates plus Q1 and Q6.
  kQ1, kQ3, kQ5, kQ6, kQ7, kQ8, kQ9, kQ10,
  // Dashboard shapes over one date window (bench_optimizer's four shapes).
  kDashCustomer, kDashOrder, kDashRevenue, kDashNation,
};

const char* TemplateName(Template t);

/// One query: a template and its constants (day numbers d1/d2, a numeric
/// constant n, string constants s1/s2; each template reads its own subset).
struct QuerySpec {
  Template tmpl = Template::kQ1;
  int64_t d1 = 0;
  int64_t d2 = 0;
  int64_t n = 0;
  std::string s1;
  std::string s2;
};

std::string ToSql(const QuerySpec& q);

using Rows = std::vector<std::vector<mqo::Value>>;

/// The template's result columns, as mqo::ColumnRef::ToString names them
/// ("lineitem.l_orderkey", "sum(lineitem.l_extendedprice)"), in the order
/// ReferenceAnswer lays out its rows.
std::vector<std::string> ResultColumns(Template t);

/// The template's answer over `cols`, rows sorted.
Rows ReferenceAnswer(const QuerySpec& q, const TpcdColumns& cols);

/// A program result in the reference's layout: columns permuted into
/// ResultColumns(t) order, rows sorted. False when a column is missing or
/// the widths differ.
bool InReferenceLayout(const mqo::NamedRows& result, Template t, Rows* out);

/// Order-sensitive 64-bit digest of canonical rows (equal digests of two
/// canonical results mean bag-equal results, up to hash collisions).
uint64_t Digest(const Rows& rows);

}  // namespace mqobench

#endif  // MQOBENCH_REFERENCE_H_
