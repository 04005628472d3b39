#include <string>
void record(int v, const std::string& prefix) {
  reg.counter("ops.count")->add(v);
  reg.counter("ops.typo")->add(v);
  reg.sketch(prefix + ".nope")->observe(v);
}
