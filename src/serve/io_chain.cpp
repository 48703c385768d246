#include "serve/io_chain.h"

namespace damkit::serve {

OpIoChain build_io_chain(const std::vector<sim::TraceRecord>& records) {
  OpIoChain chain;
  for (size_t i = 0; i < records.size(); ++i) {
    const sim::TraceRecord& r = records[i];
    if (i == 0 || records[i - 1].submit != r.submit) {
      chain.stages.emplace_back();
    }
    chain.stages.back().ios.push_back({r.kind, r.offset, r.length});
  }
  return chain;
}

}  // namespace damkit::serve
