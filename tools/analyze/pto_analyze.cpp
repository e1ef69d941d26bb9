// pto-analyze: interprocedural HTM-safety and fast/fallback-consistency
// analyzer for prefix transactions (the clang LibTooling successor to the
// token-level tools/pto_lint.py; both stay -- the lint is the no-clang
// fallback and the two tools' per-file site counts are cross-checked in CI).
//
// Driven by a build's compile_commands.json (-p <builddir>), it locates
// every `pto::prefix<P>(policy, fast, slow, stats)` call site in the
// requested TUs and runs four passes (DESIGN.md section 12):
//
//   1. HTM-safety      walk the call-graph closure of the fast body and
//                      reject allocation, syscalls/IO, raw fences, and
//                      unannotated unbounded loops, whitelisting the
//                      tx-aware platform/sim/htm layers.
//   2. Footprint       lower-bound read/write cache-line estimate across
//                      calls (literal and `pto-lint: bounded(N)` trip
//                      counts multiply), checked against HtmConfig parsed
//                      from src/sim/sim.h at runtime -- never duplicated
//                      constants.
//   3. Fast/fallback   a location written transactionally in the fast body
//      write-set       but published with a plain/blind store through a
//                      shared-loaded pointer in the paired fallback closure
//                      is flagged (the seeded MSQueue defect class).
//   4. Doomed pointer  a pointer loaded from shared state in the fast body
//                      and field-dereferenced after a later, unrelated
//                      shared load without reassignment is flagged (in a
//                      doomed transaction the pointee may be recycled).
//
// Findings carry stable human-readable IDs `<kind>:<site>:<subject>` so the
// checked-in baseline (tools/analyze/baseline.json) can be reviewed and
// even authored by hand. Suppressions:
//   // pto-analyze: allow(kind, ...)   within 8 lines above the prefix call
//   // pto-analyze: revalidated        on (or right above) a flagged deref
//
// Output: --json for the machine document consumed by tools/check_analyze.py
// (sites, per-file site counts, findings), default text mode for humans
// (exit 1 when any finding survives suppression; --json always exits 0 and
// leaves policy to the gate).
#include <algorithm>
#include <cstdint>
#include <cstring>
#include <deque>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "clang/AST/ASTContext.h"
#include "clang/AST/Decl.h"
#include "clang/AST/DeclCXX.h"
#include "clang/AST/Expr.h"
#include "clang/AST/ExprCXX.h"
#include "clang/AST/RecursiveASTVisitor.h"
#include "clang/AST/Stmt.h"
#include "clang/Basic/SourceManager.h"
#include "clang/Frontend/CompilerInstance.h"
#include "clang/Frontend/FrontendAction.h"
#include "clang/Lex/Lexer.h"
#include "clang/Tooling/CommonOptionsParser.h"
#include "clang/Tooling/Tooling.h"
#include "llvm/Support/CommandLine.h"
#include "llvm/Support/Error.h"
#include "llvm/Support/FileSystem.h"
#include "llvm/Support/Path.h"
#include "llvm/Support/raw_ostream.h"

#include "htm_params.h"

using namespace clang;

namespace {

// ---------------------------------------------------------------------------
// Options
// ---------------------------------------------------------------------------

llvm::cl::OptionCategory PtoCat("pto-analyze options");

llvm::cl::opt<bool> OptJson("json",
                            llvm::cl::desc("emit machine-readable JSON"),
                            llvm::cl::cat(PtoCat));

llvm::cl::opt<std::string> OptSimHeader(
    "sim-header",
    llvm::cl::desc("path to src/sim/sim.h (HtmConfig capacity source)"),
    llvm::cl::Required, llvm::cl::cat(PtoCat));

llvm::cl::list<std::string> OptRestrict(
    "restrict",
    llvm::cl::desc("only report sites whose repo-relative file path starts "
                   "with this prefix (repeatable)"),
    llvm::cl::ZeroOrMore, llvm::cl::cat(PtoCat));

llvm::cl::opt<std::string> OptRoot(
    "root",
    llvm::cl::desc("repository root for relative paths (default: three "
                   "levels above --sim-header)"),
    llvm::cl::cat(PtoCat));

// ---------------------------------------------------------------------------
// Findings and sites (accumulated across every analyzed TU)
// ---------------------------------------------------------------------------

struct Finding {
  std::string kind;     // allocation | syscall | raw-fence | unbounded-loop |
                        // over-capacity | blind-store | doomed-deref
  std::string site;     // telemetry site name (or file:line fallback)
  std::string subject;  // helper / field / variable the finding is about
  std::string file;     // repo-relative path of the *finding* location
  unsigned line = 0;
  std::string message;

  std::string id() const { return kind + ":" + site + ":" + subject; }
};

struct SiteRec {
  std::string file;  // repo-relative
  unsigned line = 0;
  std::string name;
};

std::string g_root;                       // absolute repo root, '/'-ended
std::map<std::string, SiteRec> g_sites;   // "file:line" -> site
std::map<std::string, Finding> g_findings;  // id -> finding (dedup)
pto::analyze::HtmParams g_params;

std::string relPath(llvm::StringRef abs) {
  llvm::SmallString<256> s(abs);
  if (!llvm::sys::path::is_absolute(s)) llvm::sys::fs::make_absolute(s);
  llvm::sys::path::remove_dots(s, /*remove_dot_dot=*/true);
  std::string p(s.str());
  if (!g_root.empty() && p.rfind(g_root, 0) == 0) p = p.substr(g_root.size());
  return p;
}

std::string jsonEscape(const std::string& s) {
  std::string o;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      o += '\\';
      o += c;
    } else if (c == '\n') {
      o += "\\n";
    } else {
      o += c;
    }
  }
  return o;
}

// ---------------------------------------------------------------------------
// Source-line annotation lookup (pto-lint / pto-analyze comment directives)
// ---------------------------------------------------------------------------

class SourceLines {
 public:
  explicit SourceLines(const SourceManager& sm) : sm_(sm) {}

  // 1-indexed line text; empty when out of range or unreadable.
  llvm::StringRef line(FileID fid, unsigned ln) {
    auto& lines = cache(fid);
    if (ln == 0 || ln > lines.size()) return {};
    return lines[ln - 1];
  }

  bool anyLineContains(FileID fid, unsigned lo, unsigned hi,
                       llvm::StringRef needle) {
    for (unsigned ln = lo; ln <= hi; ++ln) {
      if (line(fid, ln).contains(needle)) return true;
    }
    return false;
  }

  // `// pto-lint: bounded(EXPR)` on any line in [lo, hi]; returns the
  // annotation text or empty. Numeric EXPR doubles as a trip count.
  std::string boundedAnnotation(FileID fid, unsigned lo, unsigned hi) {
    for (unsigned ln = lo; ln <= hi; ++ln) {
      llvm::StringRef l = line(fid, ln);
      size_t at = l.find("pto-lint: bounded(");
      if (at == llvm::StringRef::npos) continue;
      llvm::StringRef rest = l.substr(at + strlen("pto-lint: bounded("));
      size_t close = rest.find(')');
      // A multi-line annotation comment may not close on this line; the
      // directive still counts, with the visible prefix as its text.
      return std::string(close == llvm::StringRef::npos ? rest
                                                        : rest.take_front(close));
    }
    return {};
  }

  // `// pto-analyze: allow(a, b)` in [lo, hi] listing `kind`.
  bool allows(FileID fid, unsigned lo, unsigned hi, llvm::StringRef kind) {
    for (unsigned ln = lo; ln <= hi; ++ln) {
      llvm::StringRef l = line(fid, ln);
      size_t at = l.find("pto-analyze: allow(");
      if (at == llvm::StringRef::npos) continue;
      llvm::StringRef rest = l.substr(at + strlen("pto-analyze: allow("));
      size_t close = rest.find(')');
      if (close != llvm::StringRef::npos) rest = rest.take_front(close);
      llvm::SmallVector<llvm::StringRef, 4> kinds;
      rest.split(kinds, ',', -1, /*KeepEmpty=*/false);
      for (llvm::StringRef k : kinds) {
        if (k.trim() == kind) return true;
      }
    }
    return false;
  }

 private:
  llvm::SmallVector<llvm::StringRef, 0>& cache(FileID fid) {
    auto it = lines_.find(fid);
    if (it != lines_.end()) return it->second;
    auto& v = lines_[fid];
    bool invalid = false;
    llvm::StringRef buf = sm_.getBufferData(fid, &invalid);
    if (!invalid) buf.split(v, '\n');
    return v;
  }

  const SourceManager& sm_;
  std::map<FileID, llvm::SmallVector<llvm::StringRef, 0>> lines_;
};

// ---------------------------------------------------------------------------
// Small AST helpers
// ---------------------------------------------------------------------------

const LambdaExpr* findLambda(const Stmt* s) {
  if (s == nullptr) return nullptr;
  if (const auto* l = dyn_cast<LambdaExpr>(s)) return l;
  for (const Stmt* c : s->children()) {
    if (const LambdaExpr* l = findLambda(c)) return l;
  }
  return nullptr;
}

const StringLiteral* findStringLiteral(const Stmt* s) {
  if (s == nullptr) return nullptr;
  if (const auto* sl = dyn_cast<StringLiteral>(s)) return sl;
  for (const Stmt* c : s->children()) {
    if (const StringLiteral* sl = findStringLiteral(c)) return sl;
  }
  return nullptr;
}

bool isAtomicMemberCall(const CXXMemberCallExpr* mc) {
  const CXXRecordDecl* rd = mc->getRecordDecl();
  return rd != nullptr && rd->getName() == "atomic";
}

enum class AtomicOp { kNone, kLoad, kStore, kInit, kCas, kRmw };

AtomicOp atomicOpOf(const CXXMemberCallExpr* mc) {
  if (!isAtomicMemberCall(mc)) return AtomicOp::kNone;
  const CXXMethodDecl* md = mc->getMethodDecl();
  if (md == nullptr) return AtomicOp::kNone;
  llvm::StringRef n = md->getName();
  if (n == "load") return AtomicOp::kLoad;
  if (n == "store") return AtomicOp::kStore;
  if (n == "init") return AtomicOp::kInit;
  if (n.startswith("compare_exchange")) return AtomicOp::kCas;
  if (n.startswith("fetch_") || n == "exchange") return AtomicOp::kRmw;
  return AtomicOp::kNone;
}

bool subtreeContainsAtomicLoad(const Stmt* s) {
  if (s == nullptr) return false;
  if (const auto* mc = dyn_cast<CXXMemberCallExpr>(s)) {
    if (atomicOpOf(mc) == AtomicOp::kLoad) return true;
  }
  for (const Stmt* c : s->children()) {
    if (subtreeContainsAtomicLoad(c)) return true;
  }
  return false;
}

// `e` is an atomic load itself, at most cast/paren-wrapped. Wrapper *calls*
// (`ptr(hw)`, `block_of(w)`) deliberately do not count: the wrapped value has
// already been laundered through arithmetic and tracking it would flood the
// doomed-pointer and blind-store passes with mask/tag idioms.
bool isDirectAtomicLoad(const Expr* e) {
  if (e == nullptr) return false;
  const Expr* inner = e->IgnoreParenCasts();
  const auto* mc = dyn_cast<CXXMemberCallExpr>(inner);
  return mc != nullptr && atomicOpOf(mc) == AtomicOp::kLoad;
}

// The implicit-object argument expression of a member call (`x->next` in
// `x->next.store(v)`), with implicit nodes stripped.
const Expr* memberCallBase(const CXXMemberCallExpr* mc) {
  const Expr* e = mc->getImplicitObjectArgument();
  return e == nullptr ? nullptr : e->IgnoreParenImpCasts();
}

std::string sourceText(const Stmt* s, const SourceManager& sm,
                       const LangOptions& lo) {
  if (s == nullptr) return {};
  CharSourceRange r = sm.getExpansionRange(s->getSourceRange());
  return Lexer::getSourceText(r, sm, lo).str();
}

bool mentionsName(const std::string& text, llvm::StringRef name) {
  // Identifier-boundary search, so `p` is not found inside `pupdate`.
  size_t at = 0;
  auto isIdent = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
           (c >= '0' && c <= '9') || c == '_';
  };
  while ((at = text.find(name.str(), at)) != std::string::npos) {
    bool lok = at == 0 || !isIdent(text[at - 1]);
    size_t end = at + name.size();
    bool rok = end >= text.size() || !isIdent(text[end]);
    if (lok && rok) return true;
    at = end;
  }
  return false;
}

// ---------------------------------------------------------------------------
// Callee classification (whitelist policy -- DESIGN.md section 12)
// ---------------------------------------------------------------------------

enum class CalleeClass {
  kAllocation,
  kSyscall,
  kRawFence,
  kWhitelisted,  // tx-aware platform/sim/htm layers, std::, builtins
  kRecurse,      // user code with a visible body: walk into it
  kOpaque,       // no body and not classified: skipped (conservative quiet)
};

bool startsWithAny(llvm::StringRef s, std::initializer_list<const char*> ps) {
  for (const char* p : ps) {
    if (s.startswith(p)) return true;
  }
  return false;
}

CalleeClass classifyCallee(const FunctionDecl* fd) {
  std::string qn = fd->getQualifiedNameAsString();
  llvm::StringRef name = fd->getDeclName().isIdentifier()
                             ? fd->getName()
                             : llvm::StringRef(qn);

  // Allocation wins over everything: the platform layer is tx-aware, but
  // its allocator entry points still must not run inside a transaction.
  if (fd->getOverloadedOperator() == OO_New ||
      fd->getOverloadedOperator() == OO_Array_New ||
      fd->getOverloadedOperator() == OO_Delete ||
      fd->getOverloadedOperator() == OO_Array_Delete) {
    return CalleeClass::kAllocation;
  }
  static const char* kAllocNames[] = {"malloc",        "calloc",
                                      "realloc",       "free",
                                      "aligned_alloc", "posix_memalign",
                                      "strdup"};
  for (const char* a : kAllocNames) {
    if (name == a) return CalleeClass::kAllocation;
  }
  if (qn.rfind("pto::", 0) == 0 &&
      (name == "make" || name == "destroy" || name == "alloc_bytes" ||
       name == "free_bytes")) {
    return CalleeClass::kAllocation;
  }

  // Raw fences abort (RTM) or corrupt (sim) the transaction; P::fence() is
  // the tx-aware spelling and lands in the whitelist below.
  static const char* kFenceNames[] = {"atomic_thread_fence",
                                      "atomic_signal_fence",
                                      "__sync_synchronize", "_mm_mfence",
                                      "_mm_sfence", "_mm_lfence"};
  for (const char* f : kFenceNames) {
    if (name == f || qn == std::string("std::") + f) {
      return CalleeClass::kRawFence;
    }
  }

  // Kernel entries and stdio: any syscall aborts the transaction.
  static const char* kIoNames[] = {
      "printf", "fprintf", "vfprintf", "puts",  "fputs",  "putchar",
      "fwrite", "fread",   "fopen",    "fclose", "fflush", "open",
      "close",  "read",    "write",    "ioctl", "mmap",   "munmap",
      "usleep", "sleep",   "nanosleep", "sched_yield"};
  for (const char* io : kIoNames) {
    if (name == io) return CalleeClass::kSyscall;
  }
  if (qn.find("basic_ostream") != std::string::npos ||
      qn.find("basic_istream") != std::string::npos ||
      qn.rfind("std::this_thread", 0) == 0 ||
      qn.rfind("std::mutex", 0) == 0 ||
      qn.rfind("std::condition_variable", 0) == 0 ||
      qn.rfind("pthread_", 0) == 0) {
    return CalleeClass::kSyscall;
  }

  // The tx-aware layers: the simulator and HTM runtimes participate in the
  // transaction protocol by construction, telemetry interning is outside
  // the measured path, and platform statics (pause, fence, rnd, tx_*) are
  // the sanctioned in-tx primitives. `assert` only fires on an invariant
  // violation that already dooms the run. std:: and builtins: value-only
  // helpers (optional, min, tuple, ...) -- their allocating/IO entry points
  // were classified above, before this catch-all.
  if (startsWithAny(qn, {"pto::sim::", "pto::htm", "pto::softhtm",
                         "pto::telemetry", "pto::SimPlatform",
                         "pto::NativePlatform", "pto::prefix",
                         "pto::PrefixPolicy"}) ||
      name == "__assert_fail" || name == "assert" ||
      fd->getBuiltinID() != 0 || qn.rfind("std::", 0) == 0 ||
      qn.rfind("__gnu_cxx::", 0) == 0 || name.startswith("__builtin")) {
    return CalleeClass::kWhitelisted;
  }

  const FunctionDecl* def = fd->getDefinition();
  if (def != nullptr && def->hasBody()) return CalleeClass::kRecurse;
  return CalleeClass::kOpaque;
}

// ---------------------------------------------------------------------------
// Loop utilities
// ---------------------------------------------------------------------------

bool condHasComparison(const Stmt* s) {
  if (s == nullptr) return false;
  if (const auto* bo = dyn_cast<BinaryOperator>(s)) {
    if (bo->isComparisonOp()) return true;
  }
  if (const auto* oc = dyn_cast<CXXOperatorCallExpr>(s)) {
    switch (oc->getOperator()) {
      case OO_Less:
      case OO_LessEqual:
      case OO_Greater:
      case OO_GreaterEqual:
      case OO_ExclaimEqual:
      case OO_EqualEqual:
      case OO_Spaceship:
        return true;
      default:
        break;
    }
  }
  for (const Stmt* c : s->children()) {
    if (condHasComparison(c)) return true;
  }
  return false;
}

// Mirror of pto_lint.loop_is_syntactically_bounded: a for loop whose own
// header compares the induction variable against a bound proves progress;
// while/do/for(;;)/range-for need an annotation.
bool loopSyntacticallyBounded(const Stmt* loop) {
  const auto* fs = dyn_cast<ForStmt>(loop);
  return fs != nullptr && condHasComparison(fs->getCond());
}

// Literal trip count of `for (i = A; i < B; ...)` when both A and B fold to
// integer constants; 0 when unknown.
std::uint64_t literalTripCount(const Stmt* loop, ASTContext& ctx) {
  const auto* fs = dyn_cast<ForStmt>(loop);
  if (fs == nullptr || fs->getCond() == nullptr) return 0;
  const auto* bo =
      dyn_cast<BinaryOperator>(fs->getCond()->IgnoreParenImpCasts());
  if (bo == nullptr) return 0;
  if (bo->getOpcode() != BO_LT && bo->getOpcode() != BO_LE) return 0;
  Expr::EvalResult hi;
  if (!bo->getRHS()->EvaluateAsInt(hi, ctx)) return 0;
  std::uint64_t b = hi.Val.getInt().getLimitedValue(1ull << 32);
  std::uint64_t a = 0;
  if (const auto* ds = dyn_cast_or_null<DeclStmt>(fs->getInit())) {
    if (ds->isSingleDecl()) {
      if (const auto* vd = dyn_cast<VarDecl>(ds->getSingleDecl())) {
        if (vd->hasInit()) {
          Expr::EvalResult lo;
          if (vd->getInit()->EvaluateAsInt(lo, ctx)) {
            a = lo.Val.getInt().getLimitedValue(1ull << 32);
          }
        }
      }
    }
  }
  if (b < a) return 0;
  std::uint64_t trip = b - a;
  if (bo->getOpcode() == BO_LE) trip += 1;
  return trip;
}

// ---------------------------------------------------------------------------
// Per-site analysis
// ---------------------------------------------------------------------------

struct SiteCtx {
  ASTContext* ast = nullptr;
  SourceLines* lines = nullptr;
  std::string siteName;
  std::string siteFile;  // repo-relative
  unsigned siteLine = 0;
  FileID siteFid;

  bool siteAllows(llvm::StringRef kind) const {
    unsigned lo = siteLine > 8 ? siteLine - 8 : 1;
    return lines->allows(siteFid, lo, siteLine, kind);
  }

  void report(const char* kind, const std::string& subject,
              SourceLocation where, const std::string& message) {
    if (siteAllows(kind)) return;
    const SourceManager& sm = ast->getSourceManager();
    SourceLocation x = sm.getExpansionLoc(where);
    Finding f;
    f.kind = kind;
    f.site = siteName;
    f.subject = subject;
    f.file = relPath(sm.getFilename(x));
    f.line = sm.getExpansionLineNumber(x);
    f.message = message;
    g_findings.emplace(f.id(), std::move(f));
  }
};

// Annotation window for a loop statement: the line before the loop through
// the line its body (or do-while condition) starts on.
struct LoopLines {
  FileID fid;
  unsigned lo = 0, hi = 0;
};

LoopLines loopAnnotationWindow(const Stmt* loop, const SourceManager& sm) {
  LoopLines w;
  SourceLocation b = sm.getExpansionLoc(loop->getBeginLoc());
  w.fid = sm.getFileID(b);
  unsigned begin = sm.getExpansionLineNumber(b);
  w.lo = begin > 1 ? begin - 1 : 1;
  unsigned end = begin;
  const Stmt* body = nullptr;
  if (const auto* fs = dyn_cast<ForStmt>(loop)) body = fs->getBody();
  if (const auto* ws = dyn_cast<WhileStmt>(loop)) body = ws->getBody();
  if (const auto* rs = dyn_cast<CXXForRangeStmt>(loop)) body = rs->getBody();
  if (body != nullptr) {
    end = sm.getExpansionLineNumber(sm.getExpansionLoc(body->getBeginLoc()));
  }
  if (const auto* ds = dyn_cast<DoStmt>(loop)) {
    // do-while: `do` line (and the one before) plus the trailing while
    // condition's lines -- matching pto_lint's annotation_for.
    unsigned wl = sm.getExpansionLineNumber(sm.getExpansionLoc(ds->getWhileLoc()));
    unsigned ce = sm.getExpansionLineNumber(
        sm.getExpansionLoc(ds->getCond()->getEndLoc()));
    w.hi = std::max({begin, wl, ce});
    return w;
  }
  w.hi = std::max(begin, end);
  return w;
}

// --- Pass 1: HTM-safety over the fast closure ------------------------------

class SafetyWalker {
 public:
  SafetyWalker(SiteCtx& site, const LangOptions& lo) : site_(site), lo_(lo) {}

  void run(const FunctionDecl* fast) { walkFunction(fast, "fast-body"); }

 private:
  void walkFunction(const FunctionDecl* fd, llvm::StringRef pathTop) {
    const FunctionDecl* def = fd->getDefinition();
    if (def == nullptr || !def->hasBody()) return;
    if (!visited_.insert(def->getCanonicalDecl()).second) return;
    walkStmt(def->getBody(), pathTop);
  }

  void walkStmt(const Stmt* s, llvm::StringRef pathTop) {
    if (s == nullptr) return;
    if (isa<LambdaExpr>(s)) return;  // nested lambda: not called here

    if (isa<CXXNewExpr>(s) || isa<CXXDeleteExpr>(s)) {
      site_.report("allocation", pathTop.str(), s->getBeginLoc(),
                   "operator new/delete reachable from the fast body via '" +
                       pathTop.str() + "'");
    }
    if (isa<GCCAsmStmt>(s) || isa<MSAsmStmt>(s)) {
      site_.report("raw-fence", pathTop.str(), s->getBeginLoc(),
                   "inline asm in the fast-body closure (via '" +
                       pathTop.str() + "')");
    }

    if (isa<WhileStmt>(s) || isa<DoStmt>(s) || isa<ForStmt>(s) ||
        isa<CXXForRangeStmt>(s)) {
      checkLoop(s, pathTop);
    }

    if (const auto* mc = dyn_cast<CXXMemberCallExpr>(s)) {
      if (atomicOpOf(mc) != AtomicOp::kNone) {
        // Atomic accesses are leaves; still walk argument subtrees so a
        // call buried in an argument is not missed.
        for (const Stmt* c : mc->children()) walkStmt(c, pathTop);
        return;
      }
    }
    if (const auto* ce = dyn_cast<CallExpr>(s)) {
      if (const FunctionDecl* callee = ce->getDirectCallee()) {
        dispatchCallee(callee, ce, pathTop);
      }
    } else if (const auto* cc = dyn_cast<CXXConstructExpr>(s)) {
      if (const CXXConstructorDecl* ctor = cc->getConstructor()) {
        dispatchCallee(ctor, cc, pathTop);
      }
    }
    for (const Stmt* c : s->children()) walkStmt(c, pathTop);
  }

  void dispatchCallee(const FunctionDecl* callee, const Stmt* at,
                      llvm::StringRef pathTop) {
    std::string name = callee->getNameAsString();
    switch (classifyCallee(callee)) {
      case CalleeClass::kAllocation:
        site_.report("allocation",
                     pathTop == "fast-body" ? name : pathTop.str(),
                     at->getBeginLoc(),
                     "allocation '" + callee->getQualifiedNameAsString() +
                         "' reachable from the fast body via '" +
                         pathTop.str() + "'");
        break;
      case CalleeClass::kSyscall:
        site_.report("syscall", pathTop == "fast-body" ? name : pathTop.str(),
                     at->getBeginLoc(),
                     "syscall/IO '" + callee->getQualifiedNameAsString() +
                         "' reachable from the fast body");
        break;
      case CalleeClass::kRawFence:
        site_.report("raw-fence",
                     pathTop == "fast-body" ? name : pathTop.str(),
                     at->getBeginLoc(),
                     "raw fence '" + name + "' in the fast-body closure; "
                     "use P::fence()");
        break;
      case CalleeClass::kWhitelisted:
      case CalleeClass::kOpaque:
        break;
      case CalleeClass::kRecurse:
        walkFunction(callee, pathTop == "fast-body"
                                 ? llvm::StringRef(nameStore_.emplace_back(name))
                                 : pathTop);
        break;
    }
  }

  void checkLoop(const Stmt* loop, llvm::StringRef pathTop) {
    if (loopSyntacticallyBounded(loop)) return;
    const SourceManager& sm = site_.ast->getSourceManager();
    LoopLines w = loopAnnotationWindow(loop, sm);
    if (!site_.lines->boundedAnnotation(w.fid, w.lo, w.hi).empty()) return;
    std::string subject = pathTop == "fast-body"
                              ? "loop-l" + std::to_string(w.lo + 1)
                              : pathTop.str();
    site_.report("unbounded-loop", subject, loop->getBeginLoc(),
                 "loop without a syntactic bound or 'pto-lint: bounded(...)' "
                 "annotation in the fast-body closure (via '" +
                     pathTop.str() + "')");
  }

  SiteCtx& site_;
  const LangOptions& lo_;
  std::set<const FunctionDecl*> visited_;
  std::deque<std::string> nameStore_;  // stable storage for pathTop refs
};

// --- Pass 2: footprint lower bound over the fast closure -------------------

class FootprintWalker {
 public:
  explicit FootprintWalker(SiteCtx& site, const LangOptions& lo)
      : site_(site), lo_(lo) {}

  void run(const FunctionDecl* fast, const Stmt* fastBody) {
    walkStmt(fastBody, 1, fast);
    std::uint64_t writes = fixedWrites_.size() + scaledWrites_;
    std::uint64_t reads = fixedReads_.size() + scaledReads_;
    if (writes > g_params.max_write_lines) {
      site_.report("over-capacity", "writes",
                   fastBody != nullptr ? fastBody->getBeginLoc()
                                       : SourceLocation(),
                   "static write-set lower bound " + std::to_string(writes) +
                       " lines exceeds HtmConfig max_write_lines=" +
                       std::to_string(g_params.max_write_lines));
    }
    if (reads > g_params.max_read_lines) {
      site_.report("over-capacity", "reads",
                   fastBody != nullptr ? fastBody->getBeginLoc()
                                       : SourceLocation(),
                   "static read-set lower bound " + std::to_string(reads) +
                       " lines exceeds HtmConfig max_read_lines=" +
                       std::to_string(g_params.max_read_lines));
    }
  }

 private:
  // Per-function summary: accesses whose location depends on a parameter
  // scale with the caller's loop trip count; the rest dedup by source text.
  struct FnSummary {
    unsigned paramWrites = 0, paramReads = 0;
    std::set<std::string> fixedWrites, fixedReads;
  };

  const FnSummary& summarize(const FunctionDecl* fd) {
    const FunctionDecl* def = fd->getDefinition();
    auto it = summaries_.find(def);
    if (it != summaries_.end()) return it->second;
    FnSummary& s = summaries_[def];  // insert first: cycles terminate at {}
    if (def != nullptr && def->hasBody()) {
      summarizeStmt(def->getBody(), def, s, /*mult=*/1);
    }
    return summaries_[def];
  }

  bool dependsOnParam(const Stmt* e, const FunctionDecl* fn) {
    if (e == nullptr || fn == nullptr) return false;
    if (const auto* dr = dyn_cast<DeclRefExpr>(e)) {
      if (isa<ParmVarDecl>(dr->getDecl())) return true;
    }
    for (const Stmt* c : e->children()) {
      if (dependsOnParam(c, fn)) return true;
    }
    return false;
  }

  void recordAccess(const CXXMemberCallExpr* mc, AtomicOp op,
                    const FunctionDecl* fn, FnSummary* summary,
                    std::uint64_t mult) {
    const SourceManager& sm = site_.ast->getSourceManager();
    std::string loc = sourceText(memberCallBase(mc), sm, lo_);
    bool w = op == AtomicOp::kStore || op == AtomicOp::kInit ||
             op == AtomicOp::kCas || op == AtomicOp::kRmw;
    bool r = op == AtomicOp::kLoad || op == AtomicOp::kCas ||
             op == AtomicOp::kRmw;
    bool mentionsLoopVar = false;
    for (const std::string& lv : loopVarHit_) {
      if (mentionsName(loc, lv)) mentionsLoopVar = true;
    }
    bool scales = mult > 1 && mentionsLoopVar;
    if (summary != nullptr) {
      bool param = dependsOnParam(memberCallBase(mc), fn);
      if (w) {
        if (param) summary->paramWrites += 1;
        else summary->fixedWrites.insert(loc);
      }
      if (r) {
        if (param) summary->paramReads += 1;
        else summary->fixedReads.insert(loc);
      }
      return;
    }
    if (w) {
      if (scales) scaledWrites_ += mult;
      else fixedWrites_.insert(loc);
    }
    if (r) {
      if (scales) scaledReads_ += mult;
      else fixedReads_.insert(loc);
    }
  }

  // Shared walker; when `summary` is null, accumulates into the site-level
  // totals, else into the callee summary.
  void walkInto(const Stmt* s, const FunctionDecl* fn, FnSummary* summary,
                std::uint64_t mult) {
    if (s == nullptr) return;
    if (isa<LambdaExpr>(s)) return;

    if (isa<ForStmt>(s) || isa<WhileStmt>(s) || isa<DoStmt>(s) ||
        isa<CXXForRangeStmt>(s)) {
      std::uint64_t trip = literalTripCount(s, *site_.ast);
      if (trip == 0) {
        const SourceManager& sm = site_.ast->getSourceManager();
        LoopLines w = loopAnnotationWindow(s, sm);
        std::string ann = site_.lines->boundedAnnotation(w.fid, w.lo, w.hi);
        if (!ann.empty()) {
          std::uint64_t n = 0;
          for (char c : ann) {
            if (c >= '0' && c <= '9') n = n * 10 + (c - '0');
            else { n = 0; break; }
          }
          trip = n;
        }
      }
      const Stmt* body = nullptr;
      std::string loopVar;
      if (const auto* fs = dyn_cast<ForStmt>(s)) {
        body = fs->getBody();
        if (const auto* ds = dyn_cast_or_null<DeclStmt>(fs->getInit())) {
          if (ds->isSingleDecl()) {
            if (const auto* vd = dyn_cast<VarDecl>(ds->getSingleDecl())) {
              loopVar = vd->getNameAsString();
            }
          }
        }
      } else if (const auto* ws = dyn_cast<WhileStmt>(s)) {
        body = ws->getBody();
      } else if (const auto* ds2 = dyn_cast<DoStmt>(s)) {
        body = ds2->getBody();
      } else if (const auto* rs = dyn_cast<CXXForRangeStmt>(s)) {
        body = rs->getBody();
      }
      std::uint64_t inner = trip > 1 ? mult * std::min<std::uint64_t>(
                                                  trip, 1ull << 20)
                                     : mult;
      if (!loopVar.empty() && inner > 1) loopVarHit_.insert(loopVar);
      walkInto(body, fn, summary, inner);
      if (!loopVar.empty()) loopVarHit_.erase(loopVar);
      return;  // loop header exprs contribute no distinct lines
    }

    if (const auto* mc = dyn_cast<CXXMemberCallExpr>(s)) {
      AtomicOp op = atomicOpOf(mc);
      if (op != AtomicOp::kNone) {
        recordAccess(mc, op, fn, summary, mult);
        for (const Stmt* c : mc->children()) walkInto(c, fn, summary, mult);
        return;
      }
    }
    if (const auto* ce = dyn_cast<CallExpr>(s)) {
      if (const FunctionDecl* callee = ce->getDirectCallee()) {
        if (classifyCallee(callee) == CalleeClass::kRecurse &&
            inStack_.insert(callee->getCanonicalDecl()).second) {
          const FnSummary& cs = summarize(callee);
          inStack_.erase(callee->getCanonicalDecl());
          bool argScales = false;
          for (const Expr* a : ce->arguments()) {
            std::string t = sourceText(a, site_.ast->getSourceManager(), lo_);
            for (const std::string& lv : loopVarHit_) {
              if (mentionsName(t, lv)) argScales = true;
            }
            if (summary != nullptr && dependsOnParam(a, fn)) argScales = true;
          }
          std::uint64_t m = argScales ? mult : 1;
          if (summary != nullptr) {
            summary->paramWrites += cs.paramWrites;
            summary->paramReads += cs.paramReads;
            for (auto& x : cs.fixedWrites) summary->fixedWrites.insert(x);
            for (auto& x : cs.fixedReads) summary->fixedReads.insert(x);
          } else {
            scaledWrites_ += cs.paramWrites * m;
            scaledReads_ += cs.paramReads * m;
            for (auto& x : cs.fixedWrites) fixedWrites_.insert(x);
            for (auto& x : cs.fixedReads) fixedReads_.insert(x);
          }
        }
      }
    }
    for (const Stmt* c : s->children()) walkInto(c, fn, summary, mult);
  }

  void summarizeStmt(const Stmt* s, const FunctionDecl* fn, FnSummary& out,
                     std::uint64_t mult) {
    walkInto(s, fn, &out, mult);
  }

  void walkStmt(const Stmt* s, std::uint64_t mult, const FunctionDecl* fn) {
    walkInto(s, fn, nullptr, mult);
  }

  SiteCtx& site_;
  const LangOptions& lo_;
  std::map<const FunctionDecl*, FnSummary> summaries_;
  std::set<const FunctionDecl*> inStack_;
  std::set<std::string> loopVarHit_;
  std::set<std::string> fixedWrites_, fixedReads_;
  std::uint64_t scaledWrites_ = 0, scaledReads_ = 0;
};

// --- Pass 3: fast/fallback write-set consistency ---------------------------

class ConsistencyWalker {
 public:
  ConsistencyWalker(SiteCtx& site, const LangOptions& lo)
      : site_(site), lo_(lo) {}

  // Collect the fields written (atomically or plainly) in the fast closure.
  void collectTxWrites(const FunctionDecl* fast) {
    collect_(fast);
  }

  // Walk the fallback universe: the slow lambda closure plus the enclosing
  // function (minus lambda subtrees), flagging blind stores through
  // shared-loaded pointers to tx-written fields.
  void checkFallback(const FunctionDecl* slow, const FunctionDecl* enclosing,
                     const LambdaExpr* fastL, const LambdaExpr* slowL) {
    if (slow != nullptr && slow->hasBody()) {
      checkFunction_(slow->getBody(), slow);
      closeOver_(slow->getBody());
    }
    if (enclosing != nullptr && enclosing->hasBody()) {
      checkFunction_(enclosing->getBody(), enclosing);
      closeOver_(enclosing->getBody());
    }
    (void)fastL;
    (void)slowL;
  }

 private:
  void collect_(const FunctionDecl* fd) {
    const FunctionDecl* def = fd == nullptr ? nullptr : fd->getDefinition();
    if (def == nullptr || !def->hasBody()) return;
    if (!txVisited_.insert(def->getCanonicalDecl()).second) return;
    collectStmt_(def->getBody());
  }

  void collectStmt_(const Stmt* s) {
    if (s == nullptr) return;
    if (isa<LambdaExpr>(s)) return;
    if (const auto* mc = dyn_cast<CXXMemberCallExpr>(s)) {
      AtomicOp op = atomicOpOf(mc);
      if (op == AtomicOp::kStore || op == AtomicOp::kInit ||
          op == AtomicOp::kCas || op == AtomicOp::kRmw) {
        if (const FieldDecl* f = writtenField_(mc)) {
          txWritten_.insert(f->getCanonicalDecl());
        }
      }
    }
    if (const auto* bo = dyn_cast<BinaryOperator>(s)) {
      if (bo->isAssignmentOp()) {
        if (const auto* me = dyn_cast<MemberExpr>(
                bo->getLHS()->IgnoreParenImpCasts())) {
          if (const auto* f = dyn_cast<FieldDecl>(me->getMemberDecl())) {
            txWritten_.insert(f->getCanonicalDecl());
          }
        }
      }
    }
    if (const auto* ce = dyn_cast<CallExpr>(s)) {
      if (const FunctionDecl* callee = ce->getDirectCallee()) {
        if (classifyCallee(callee) == CalleeClass::kRecurse) collect_(callee);
      }
    }
    for (const Stmt* c : s->children()) collectStmt_(c);
  }

  const FieldDecl* writtenField_(const CXXMemberCallExpr* mc) {
    const Expr* base = memberCallBase(mc);
    if (const auto* me = dyn_cast_or_null<MemberExpr>(base)) {
      return dyn_cast<FieldDecl>(me->getMemberDecl());
    }
    return nullptr;
  }

  void closeOver_(const Stmt* s) {
    if (s == nullptr) return;
    if (const auto* ce = dyn_cast<CallExpr>(s)) {
      if (const FunctionDecl* callee = ce->getDirectCallee()) {
        if (classifyCallee(callee) == CalleeClass::kRecurse &&
            fbVisited_.insert(callee->getCanonicalDecl()).second) {
          const FunctionDecl* def = callee->getDefinition();
          checkFunction_(def->getBody(), def);
          closeOver_(def->getBody());
        }
      }
    }
    for (const Stmt* c : s->children()) {
      if (!isa<LambdaExpr>(c)) closeOver_(c);
    }
  }

  // Locals assigned from an atomic load within `fn` (shared-loaded
  // pointers), then blind stores through them to tx-written fields.
  void checkFunction_(const Stmt* body, const FunctionDecl* fn) {
    if (body == nullptr) return;
    std::set<const VarDecl*> shared;
    gatherShared_(body, shared);
    flagStores_(body, shared, fn);
  }

  void gatherShared_(const Stmt* s, std::set<const VarDecl*>& shared) {
    if (s == nullptr) return;
    if (isa<LambdaExpr>(s)) return;
    if (const auto* ds = dyn_cast<DeclStmt>(s)) {
      for (const Decl* d : ds->decls()) {
        if (const auto* vd = dyn_cast<VarDecl>(d)) {
          if (vd->getType()->isPointerType() && vd->hasInit() &&
              isDirectAtomicLoad(vd->getInit())) {
            shared.insert(vd);
          }
        }
      }
    }
    if (const auto* bo = dyn_cast<BinaryOperator>(s)) {
      if (bo->getOpcode() == BO_Assign) {
        if (const auto* dr = dyn_cast<DeclRefExpr>(
                bo->getLHS()->IgnoreParenImpCasts())) {
          if (const auto* vd = dyn_cast<VarDecl>(dr->getDecl())) {
            if (vd->getType()->isPointerType() &&
                isDirectAtomicLoad(bo->getRHS())) {
              shared.insert(vd);
            }
          }
        }
      }
    }
    for (const Stmt* c : s->children()) gatherShared_(c, shared);
  }

  void flagStores_(const Stmt* s, const std::set<const VarDecl*>& shared,
                   const FunctionDecl* fn) {
    if (s == nullptr) return;
    if (isa<LambdaExpr>(s)) return;
    if (const auto* mc = dyn_cast<CXXMemberCallExpr>(s)) {
      AtomicOp op = atomicOpOf(mc);
      // CAS and fetch-ops are guarded publications; store/init are blind.
      if (op == AtomicOp::kStore || op == AtomicOp::kInit) {
        const Expr* base = memberCallBase(mc);
        if (const auto* me = dyn_cast_or_null<MemberExpr>(base)) {
          const auto* field = dyn_cast<FieldDecl>(me->getMemberDecl());
          const Expr* obj = me->getBase()->IgnoreParenImpCasts();
          const auto* dr = dyn_cast<DeclRefExpr>(obj);
          if (field != nullptr && dr != nullptr && me->isArrow() &&
              txWritten_.count(field->getCanonicalDecl()) != 0) {
            if (const auto* vd = dyn_cast<VarDecl>(dr->getDecl())) {
              if (shared.count(vd) != 0) {
                const SourceManager& sm = site_.ast->getSourceManager();
                SourceLocation x = sm.getExpansionLoc(mc->getBeginLoc());
                unsigned ln = sm.getExpansionLineNumber(x);
                FileID fid = sm.getFileID(x);
                if (!site_.lines->allows(fid, ln > 1 ? ln - 1 : 1, ln,
                                         "blind-store")) {
                  site_.report(
                      "blind-store", field->getNameAsString(),
                      mc->getBeginLoc(),
                      "field '" + field->getNameAsString() +
                          "' is written transactionally in the fast body "
                          "but published with a blind " +
                          (op == AtomicOp::kStore ? "store" : "init") +
                          " through shared-loaded pointer '" +
                          vd->getNameAsString() +
                          "' in the fallback; publish with a CAS");
                }
              }
            }
          }
        }
      }
    }
    // Plain `=` publication through a shared-loaded pointer to a field the
    // fast body writes transactionally -- same defect class, no atomics.
    if (const auto* bo = dyn_cast<BinaryOperator>(s)) {
      if (bo->getOpcode() == BO_Assign) {
        if (const auto* me = dyn_cast<MemberExpr>(
                bo->getLHS()->IgnoreParenImpCasts())) {
          const auto* field = dyn_cast<FieldDecl>(me->getMemberDecl());
          const auto* dr = dyn_cast<DeclRefExpr>(
              me->getBase()->IgnoreParenImpCasts());
          if (field != nullptr && dr != nullptr && me->isArrow() &&
              txWritten_.count(field->getCanonicalDecl()) != 0) {
            if (const auto* vd = dyn_cast<VarDecl>(dr->getDecl())) {
              if (shared.count(vd) != 0) {
                const SourceManager& sm = site_.ast->getSourceManager();
                SourceLocation x = sm.getExpansionLoc(bo->getBeginLoc());
                unsigned ln = sm.getExpansionLineNumber(x);
                FileID fid = sm.getFileID(x);
                if (!site_.lines->allows(fid, ln > 1 ? ln - 1 : 1, ln,
                                         "blind-store")) {
                  site_.report(
                      "blind-store", field->getNameAsString(),
                      bo->getBeginLoc(),
                      "field '" + field->getNameAsString() +
                          "' is written transactionally in the fast body "
                          "but published with a plain store through "
                          "shared-loaded pointer '" + vd->getNameAsString() +
                          "' in the fallback; publish with a CAS");
                }
              }
            }
          }
        }
      }
    }
    (void)fn;
    for (const Stmt* c : s->children()) flagStores_(c, shared, fn);
  }

  SiteCtx& site_;
  const LangOptions& lo_;
  std::set<const FunctionDecl*> txVisited_, fbVisited_;
  std::set<const FieldDecl*> txWritten_;
};

// --- Pass 4: doomed-pointer revalidation -----------------------------------

class DoomedWalker {
 public:
  DoomedWalker(SiteCtx& site, const LangOptions& lo) : site_(site), lo_(lo) {}

  void run(const FunctionDecl* fast) { walkFunction_(fast); }

 private:
  struct Event {
    unsigned offset;
    int type;  // 0 assign, 1 shared load (staleness candidate), 2 deref
    const VarDecl* var;     // assign/deref target (null for loads)
    std::string loadBase;   // load base text
    SourceLocation loc;
  };

  void walkFunction_(const FunctionDecl* fd) {
    const FunctionDecl* def = fd == nullptr ? nullptr : fd->getDefinition();
    if (def == nullptr || !def->hasBody()) return;
    if (!visited_.insert(def->getCanonicalDecl()).second) return;

    std::vector<Event> events;
    std::set<const VarDecl*> tracked;
    std::vector<const FunctionDecl*> callees;
    gather_(def->getBody(), events, tracked, callees);
    simulate_(events, tracked);
    // The fast closure: helpers called from the fast body get their own
    // per-function simulation (the fixture defect sits one call deep).
    for (const FunctionDecl* c : callees) walkFunction_(c);
  }

  // An assignment event is anchored at the END of its right-hand side, so a
  // variable's own initializing load (which textually follows the variable
  // name) is sequenced before the assignment, not after it.
  void gather_(const Stmt* s, std::vector<Event>& ev,
               std::set<const VarDecl*>& tracked,
               std::vector<const FunctionDecl*>& callees) {
    if (s == nullptr) return;
    if (isa<LambdaExpr>(s)) return;
    const SourceManager& sm = site_.ast->getSourceManager();

    if (const auto* ds = dyn_cast<DeclStmt>(s)) {
      for (const Decl* d : ds->decls()) {
        if (const auto* vd = dyn_cast<VarDecl>(d)) {
          if (vd->getType()->isPointerType() && vd->hasInit()) {
            if (isDirectAtomicLoad(vd->getInit())) tracked.insert(vd);
            ev.push_back({sm.getFileOffset(sm.getExpansionLoc(
                              vd->getInit()->getEndLoc())),
                          0, vd, "", vd->getLocation()});
          }
        }
      }
    }
    if (const auto* bo = dyn_cast<BinaryOperator>(s)) {
      if (bo->getOpcode() == BO_Assign) {
        if (const auto* dr = dyn_cast<DeclRefExpr>(
                bo->getLHS()->IgnoreParenImpCasts())) {
          if (const auto* vd = dyn_cast<VarDecl>(dr->getDecl())) {
            if (vd->getType()->isPointerType()) {
              if (isDirectAtomicLoad(bo->getRHS())) tracked.insert(vd);
              ev.push_back({sm.getFileOffset(sm.getExpansionLoc(
                                bo->getRHS()->getEndLoc())),
                            0, vd, "", bo->getBeginLoc()});
            }
          }
        }
      }
    }
    if (const auto* mc = dyn_cast<CXXMemberCallExpr>(s)) {
      if (atomicOpOf(mc) == AtomicOp::kLoad) {
        std::string base = sourceText(memberCallBase(mc), sm, lo_);
        ev.push_back({sm.getFileOffset(sm.getExpansionLoc(mc->getBeginLoc())),
                      1, nullptr, base, mc->getBeginLoc()});
      }
    }
    if (const auto* me = dyn_cast<MemberExpr>(s)) {
      if (me->isArrow() && isa<FieldDecl>(me->getMemberDecl())) {
        if (const auto* dr = dyn_cast<DeclRefExpr>(
                me->getBase()->IgnoreParenImpCasts())) {
          if (const auto* vd = dyn_cast<VarDecl>(dr->getDecl())) {
            ev.push_back({sm.getFileOffset(sm.getExpansionLoc(
                              me->getBeginLoc())),
                          2, vd, "", me->getBeginLoc()});
          }
        }
      }
    }
    if (const auto* ce = dyn_cast<CallExpr>(s)) {
      if (const FunctionDecl* callee = ce->getDirectCallee()) {
        const auto* asMember = dyn_cast<CXXMemberCallExpr>(ce);
        bool isAtomic =
            asMember != nullptr && atomicOpOf(asMember) != AtomicOp::kNone;
        if (!isAtomic && classifyCallee(callee) == CalleeClass::kRecurse) {
          callees.push_back(callee);
        }
      }
    }
    for (const Stmt* c : s->children()) gather_(c, ev, tracked, callees);
  }

  void simulate_(std::vector<Event>& ev, const std::set<const VarDecl*>& tracked) {
    std::sort(ev.begin(), ev.end(),
              [](const Event& a, const Event& b) { return a.offset < b.offset; });
    std::map<const VarDecl*, bool> assigned, stale, reported;
    for (const Event& e : ev) {
      if (e.type == 0 && e.var != nullptr) {
        assigned[e.var] = true;
        stale[e.var] = false;
      } else if (e.type == 1) {
        for (const VarDecl* v : tracked) {
          if (assigned[v] && !mentionsName(e.loadBase, v->getName())) {
            stale[v] = true;
          }
        }
      } else if (e.type == 2 && e.var != nullptr) {
        if (tracked.count(e.var) != 0 && stale[e.var] && !reported[e.var]) {
          const SourceManager& sm = site_.ast->getSourceManager();
          SourceLocation x = sm.getExpansionLoc(e.loc);
          unsigned ln = sm.getExpansionLineNumber(x);
          FileID fid = sm.getFileID(x);
          if (site_.lines->anyLineContains(fid, ln > 1 ? ln - 1 : 1, ln,
                                           "pto-analyze: revalidated")) {
            continue;
          }
          reported[e.var] = true;
          site_.report(
              "doomed-deref", e.var->getNameAsString(), e.loc,
              "pointer '" + e.var->getNameAsString() +
                  "' was loaded from shared state, a later unrelated shared "
                  "load may leave it doomed, and it is dereferenced without "
                  "revalidation");
        }
      }
    }
  }

  SiteCtx& site_;
  const LangOptions& lo_;
  std::set<const FunctionDecl*> visited_;
};

// ---------------------------------------------------------------------------
// Site discovery
// ---------------------------------------------------------------------------

class PrefixSiteVisitor : public RecursiveASTVisitor<PrefixSiteVisitor> {
 public:
  explicit PrefixSiteVisitor(ASTContext& ctx) : ctx_(ctx), lines_(ctx.getSourceManager()) {}

  bool shouldVisitTemplateInstantiations() const { return true; }
  bool shouldVisitImplicitCode() const { return true; }

  bool VisitFunctionDecl(FunctionDecl* fd) {
    if (!fd->hasBody() || fd->isDependentContext()) return true;
    findSites(fd->getBody(), fd);
    return true;
  }

 private:
  void findSites(const Stmt* s, FunctionDecl* enclosing) {
    if (s == nullptr) return;
    if (isa<LambdaExpr>(s)) return;  // prefix sites never nest in lambdas
    if (const auto* ce = dyn_cast<CallExpr>(s)) {
      const FunctionDecl* callee = ce->getDirectCallee();
      if (callee != nullptr &&
          callee->getQualifiedNameAsString() == "pto::prefix") {
        analyzeSite(ce, enclosing);
      }
    }
    for (const Stmt* c : s->children()) findSites(c, enclosing);
  }

  void analyzeSite(const CallExpr* ce, FunctionDecl* enclosing) {
    const SourceManager& sm = ctx_.getSourceManager();
    SourceLocation loc = sm.getExpansionLoc(ce->getBeginLoc());
    std::string file = relPath(sm.getFilename(loc));
    unsigned line = sm.getExpansionLineNumber(loc);
    std::string key = file + ":" + std::to_string(line);

    if (!OptRestrict.empty()) {
      bool keep = false;
      for (const std::string& p : OptRestrict) {
        if (file.rfind(p, 0) == 0) keep = true;
      }
      if (!keep) return;
    }

    if (ce->getNumArgs() < 3) return;
    const LambdaExpr* fastL = findLambda(ce->getArg(1));
    const LambdaExpr* slowL = findLambda(ce->getArg(2));
    if (fastL == nullptr) return;

    std::string name = key;
    if (ce->getNumArgs() >= 4) {
      if (const StringLiteral* sl = findStringLiteral(ce->getArg(3))) {
        name = sl->getString().str();
      }
    }

    bool firstSeen = g_sites.emplace(key, SiteRec{file, line, name}).second;
    if (!firstSeen) return;  // another TU/instantiation already analyzed it

    SiteCtx site;
    site.ast = &ctx_;
    site.lines = &lines_;
    site.siteName = name;
    site.siteFile = file;
    site.siteLine = line;
    site.siteFid = sm.getFileID(loc);

    const CXXMethodDecl* fast = fastL->getCallOperator();
    const CXXMethodDecl* slow = slowL != nullptr ? slowL->getCallOperator()
                                                 : nullptr;
    const LangOptions& lo = ctx_.getLangOpts();

    SafetyWalker(site, lo).run(fast);
    FootprintWalker(site, lo).run(fast, fast->getBody());
    ConsistencyWalker cons(site, lo);
    cons.collectTxWrites(fast);
    cons.checkFallback(slow, enclosing, fastL, slowL);
    DoomedWalker(site, lo).run(fast);
  }

  ASTContext& ctx_;
  SourceLines lines_;
};

class AnalyzeConsumer : public ASTConsumer {
 public:
  void HandleTranslationUnit(ASTContext& ctx) override {
    PrefixSiteVisitor v(ctx);
    v.TraverseDecl(ctx.getTranslationUnitDecl());
  }
};

class AnalyzeAction : public ASTFrontendAction {
 public:
  std::unique_ptr<ASTConsumer> CreateASTConsumer(CompilerInstance&,
                                                 llvm::StringRef) override {
    return std::make_unique<AnalyzeConsumer>();
  }
};

// ---------------------------------------------------------------------------
// Output
// ---------------------------------------------------------------------------

void emitJson(llvm::raw_ostream& os) {
  os << "{\n  \"tool\": \"pto-analyze\",\n";
  os << "  \"htm_params\": " << pto::analyze::to_json(g_params) << ",\n";
  os << "  \"sites\": [\n";
  bool first = true;
  std::map<std::string, unsigned> counts;
  for (const auto& [key, s] : g_sites) {
    counts[s.file] += 1;
    os << (first ? "" : ",\n") << "    {\"file\": \"" << jsonEscape(s.file)
       << "\", \"line\": " << s.line << ", \"name\": \""
       << jsonEscape(s.name) << "\"}";
    first = false;
  }
  os << "\n  ],\n  \"site_counts\": {";
  first = true;
  for (const auto& [f, n] : counts) {
    os << (first ? "" : ", ") << "\"" << jsonEscape(f) << "\": " << n;
    first = false;
  }
  os << "},\n  \"findings\": [\n";
  first = true;
  for (const auto& [id, f] : g_findings) {
    os << (first ? "" : ",\n") << "    {\"id\": \"" << jsonEscape(id)
       << "\", \"kind\": \"" << jsonEscape(f.kind) << "\", \"site\": \""
       << jsonEscape(f.site) << "\", \"subject\": \"" << jsonEscape(f.subject)
       << "\", \"file\": \"" << jsonEscape(f.file)
       << "\", \"line\": " << f.line << ", \"message\": \""
       << jsonEscape(f.message) << "\"}";
    first = false;
  }
  os << "\n  ]\n}\n";
}

void emitText(llvm::raw_ostream& os) {
  os << "pto-analyze: " << g_sites.size() << " prefix site(s), "
     << g_findings.size() << " finding(s)  [max_write_lines="
     << g_params.max_write_lines << " max_read_lines="
     << g_params.max_read_lines << "]\n";
  for (const auto& [id, f] : g_findings) {
    os << f.file << ":" << f.line << ": [" << id << "] " << f.message << "\n";
  }
}

}  // namespace

int main(int argc, const char** argv) {
  auto expected =
      tooling::CommonOptionsParser::create(argc, argv, PtoCat);
  if (!expected) {
    llvm::errs() << llvm::toString(expected.takeError()) << "\n";
    return 2;
  }
  tooling::CommonOptionsParser& op = expected.get();

  try {
    g_params = pto::analyze::parse_htm_params(OptSimHeader);
  } catch (const pto::analyze::HtmParamsError& e) {
    llvm::errs() << "pto-analyze: " << e.what() << "\n";
    return 2;
  }

  if (!OptRoot.empty()) {
    g_root = OptRoot;
  } else {
    llvm::SmallString<256> abs(OptSimHeader.getValue());
    llvm::sys::fs::make_absolute(abs);
    llvm::sys::path::remove_dots(abs, /*remove_dot_dot=*/true);
    // <root>/src/sim/sim.h -> <root>
    llvm::StringRef r = llvm::sys::path::parent_path(
        llvm::sys::path::parent_path(llvm::sys::path::parent_path(abs)));
    g_root = r.str();
  }
  if (!g_root.empty() && g_root.back() != '/') g_root += '/';

  tooling::ClangTool tool(op.getCompilations(), op.getSourcePathList());
  int rc = tool.run(
      tooling::newFrontendActionFactory<AnalyzeAction>().get());
  if (rc != 0) {
    llvm::errs() << "pto-analyze: tool run failed (rc=" << rc << ")\n";
    return 2;
  }

  if (OptJson) {
    emitJson(llvm::outs());
    return 0;
  }
  emitText(llvm::outs());
  return g_findings.empty() ? 0 : 1;
}
