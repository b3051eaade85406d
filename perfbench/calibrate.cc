// perfbench-calibrate: a fixed amount of frontend-shaped work that shares no
// code with libcfm, so no change to the tree can move its running time. It
// builds a text of pseudo-random statements, splits it into tokens, interns
// them in a hash map and builds, walks and frees a tree over them: the
// allocation, hashing and pointer chasing a parse does. run.py times it
// between the operations it measures; its fastest time tracks how fast the
// host runs right now (perfbench/README.md, "Host speed").
//
//   perfbench-calibrate     prints a checksum that never changes

#include <cstdint>
#include <cstdio>
#include <string>
#include <unordered_map>
#include <vector>

namespace {

constexpr int kStatements = 25000;
constexpr size_t kOpenNodes = 4096;

struct Node {
  uint32_t symbol = 0;
  std::vector<uint32_t> children;
};

uint64_t Next(uint64_t& state) {
  state ^= state << 13;
  state ^= state >> 7;
  state ^= state << 17;
  return state;
}

}  // namespace

int main() {
  uint64_t state = 88172645463325252ULL;
  std::string text;
  for (int i = 0; i < kStatements; ++i) {
    text += "v" + std::to_string(Next(state) % 5000);
    text += Next(state) % 3 != 0 ? " := " : " + ";
    text += std::to_string(Next(state) % 1000);
    text += ";\n";
  }

  std::vector<std::string> tokens;
  std::string token;
  for (char c : text) {
    if (c == ' ' || c == '\n') {
      if (!token.empty()) {
        tokens.push_back(token);
      }
      token.clear();
    } else {
      token += c;
    }
  }

  std::unordered_map<std::string, uint32_t> symbols;
  for (const std::string& t : tokens) {
    symbols.emplace(t, static_cast<uint32_t>(symbols.size()));
  }

  std::vector<Node> nodes(1);
  std::vector<uint32_t> open{0};
  for (const std::string& t : tokens) {
    uint32_t id = static_cast<uint32_t>(nodes.size());
    nodes.push_back(Node{symbols.at(t), {}});
    nodes[open[Next(state) % open.size()]].children.push_back(id);
    if (open.size() < kOpenNodes) {
      open.push_back(id);
    } else {
      open[Next(state) % open.size()] = id;
    }
  }

  uint64_t checksum = symbols.size();
  std::vector<uint32_t> stack{0};
  while (!stack.empty()) {
    uint32_t id = stack.back();
    stack.pop_back();
    checksum = checksum * 31 + nodes[id].symbol;
    for (uint32_t child : nodes[id].children) {
      stack.push_back(child);
    }
  }
  std::printf("%llu\n", static_cast<unsigned long long>(checksum));
  return 0;
}
