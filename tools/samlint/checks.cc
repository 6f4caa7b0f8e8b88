#include "tools/samlint/checks.hh"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <map>
#include <set>
#include <unordered_map>
#include <unordered_set>

namespace samlint {

namespace {

const char *const kDeterminism = "sam-determinism";
const char *const kCycle = "sam-cycle-accounting";
const char *const kObserver = "sam-observer-discipline";
const char *const kLocking = "sam-locking";
const char *const kCodec = "sam-codec-construction";
const char *const kGuard = "sam-include-guard";
const char *const kIncludePath = "sam-include-path";
const char *const kStats = "sam-stats-registration";

bool
startsWith(const std::string &s, const std::string &prefix)
{
    return s.rfind(prefix, 0) == 0;
}

bool
endsWith(const std::string &s, const std::string &suffix)
{
    return s.size() >= suffix.size() &&
           s.compare(s.size() - suffix.size(), suffix.size(),
                     suffix) == 0;
}

const std::string &
tok(const SourceFile &f, std::size_t i)
{
    static const std::string empty;
    return i < f.tokens.size() ? f.tokens[i].text : empty;
}

/** The code checks' scope: the simulator and its tools. */
bool
codeScope(const std::string &path)
{
    return startsWith(path, "src/") || startsWith(path, "tools/");
}

bool
isIdent(const std::string &s)
{
    return !s.empty() &&
           (std::isalpha(static_cast<unsigned char>(s[0])) || s[0] == '_');
}

/** Shared corpus-level state built once per run. */
struct Corpus
{
    const std::vector<SourceFile> &files;
    std::unordered_map<std::string, const SourceFile *> byPath;
    /**
     * Files on the bit-identity surface: the runner/sim/controller
     * roots plus everything transitively included from them (and the
     * .cc side of every reachable header).
     */
    std::unordered_set<std::string> surface;
    /** Cycle-typed field name -> directories that declare one. */
    std::unordered_map<std::string, std::set<std::string>> cycleDirs;
};

bool
inSurfaceRoot(const std::string &path)
{
    return startsWith(path, "src/runner/") ||
           startsWith(path, "src/sim/") ||
           startsWith(path, "src/controller/");
}

void
buildSurface(Corpus &corpus)
{
    const auto &byPath = corpus.byPath;
    std::vector<const SourceFile *> frontier;
    for (const SourceFile &f : corpus.files) {
        if (inSurfaceRoot(f.path)) {
            corpus.surface.insert(f.path);
            frontier.push_back(&f);
        }
    }
    while (!frontier.empty()) {
        const SourceFile *f = frontier.back();
        frontier.pop_back();
        for (const std::string &inc : f->includes) {
            const auto it = byPath.find(inc);
            if (it == byPath.end())
                continue;
            if (corpus.surface.insert(inc).second)
                frontier.push_back(it->second);
        }
    }
    // A reachable header puts its implementation file on the surface.
    for (const SourceFile &f : corpus.files) {
        if (!endsWith(f.path, ".cc"))
            continue;
        const std::string header =
            f.path.substr(0, f.path.size() - 3) + ".hh";
        if (corpus.surface.count(header))
            corpus.surface.insert(f.path);
    }
}

void
buildCycleDirs(Corpus &corpus)
{
    for (const SourceFile &f : corpus.files) {
        if (!codeScope(f.path))
            continue;
        const std::string dir = f.dir();
        for (std::size_t i = 0; i + 1 < f.tokens.size(); ++i) {
            if (tok(f, i) != "Cycle")
                continue;
            // `Cycle name` where the next token is not `(` (that
            // would be a function returning Cycle) and the previous
            // token is not `::`/`.` (qualified use, not a decl).
            const std::string &name = tok(f, i + 1);
            if (name.empty() ||
                !(std::isalpha(static_cast<unsigned char>(name[0])) ||
                  name[0] == '_'))
                continue;
            // `Cycle f(` is a function, `Cycle T::f` a qualified
            // definition -- neither declares a field.
            if (tok(f, i + 2) == "(" || tok(f, i + 2) == ":")
                continue;
            const std::string &prev = tok(f, i - 1);
            if (i > 0 && (prev == ":" || prev == "."))
                continue;
            corpus.cycleDirs[name].insert(dir);
        }
    }
}

using Emit = std::vector<Finding> &;

void
emit(Emit out, const SourceFile &f, unsigned line,
     const std::string &check, std::string message)
{
    if (f.suppressed(line, check))
        return;
    out.push_back({f.path, line, check, std::move(message)});
}

// --- sam-determinism ---------------------------------------------------

void
checkDeterminism(const SourceFile &f, Emit out)
{
    static const std::set<std::string> kBanned = {
        "rand",          "srand",
        "random_device", "mt19937",
        "mt19937_64",    "minstd_rand",
        "steady_clock",  "system_clock",
        "high_resolution_clock",
        "this_thread",   "getenv",
    };
    // Unordered container fields/locals declared in this file.
    std::set<std::string> unordered;
    const auto &t = f.tokens;
    for (std::size_t i = 0; i < t.size(); ++i) {
        const std::string &s = t[i].text;
        if (kBanned.count(s) && tok(f, i - 1) == ":" &&
            tok(f, i - 2) == ":") {
            emit(out, f, t[i].line, kDeterminism,
                 "ambient nondeterminism (" + s +
                     ") on the bit-identity surface; use the "
                     "sanctioned sam::Rng or keep it off the "
                     "simulated path");
            continue;
        }
        if (s == "unordered_map" || s == "unordered_set") {
            // Find the declared name: skip the <...> template args.
            std::size_t k = i + 1;
            int depth = 0;
            if (tok(f, k) == "<") {
                depth = 1;
                ++k;
                bool ptrKey = false;
                int commaDepth1 = 0;
                while (k < t.size() && depth > 0) {
                    const std::string &x = t[k].text;
                    if (x == "<")
                        ++depth;
                    else if (x == ">")
                        --depth;
                    else if (x == "," && depth == 1)
                        ++commaDepth1;
                    else if (x == "*" && depth == 1 &&
                             commaDepth1 == 0)
                        ptrKey = true;
                    ++k;
                }
                (void)ptrKey; // Hash order is flagged regardless.
            }
            const std::string &name = tok(f, k);
            if (!name.empty() &&
                (std::isalpha(static_cast<unsigned char>(name[0])) ||
                 name[0] == '_') &&
                (tok(f, k + 1) == ";" || tok(f, k + 1) == "{" ||
                 tok(f, k + 1) == "="))
                unordered.insert(name);
            continue;
        }
        if ((s == "map" || s == "set") && tok(f, i - 1) == ":" &&
            tok(f, i - 2) == ":" && tok(f, i - 3) == "std" &&
            tok(f, i + 1) == "<") {
            // Ordered container keyed by pointer = address ordering.
            std::size_t k = i + 2;
            int depth = 1;
            bool ptrKey = false;
            while (k < t.size() && depth > 0) {
                const std::string &x = t[k].text;
                if (x == "<")
                    ++depth;
                else if (x == ">")
                    --depth;
                else if (x == "," && depth == 1)
                    break;
                else if (x == "*" && depth == 1)
                    ptrKey = true;
                ++k;
            }
            if (ptrKey) {
                emit(out, f, t[i].line, kDeterminism,
                     "ordered container keyed by pointer: iteration "
                     "follows allocation addresses, which are not "
                     "deterministic across runs");
            }
            continue;
        }
    }
    // Iteration over the unordered containers found above.
    for (std::size_t i = 0; i < t.size(); ++i) {
        const std::string &s = t[i].text;
        if (unordered.count(s)) {
            const std::string &next = tok(f, i + 1);
            const std::string &method = tok(f, i + 2);
            // `end()` alone is a find()-guard, not an iteration;
            // only the iteration starts give away hash order.
            if (next == "." &&
                (method == "begin" || method == "cbegin" ||
                 method == "rbegin")) {
                emit(out, f, t[i].line, kDeterminism,
                     "iterating unordered container '" + s +
                         "' exposes hash order; keep a side vector in "
                         "insertion order (see BackingStore::"
                         "overlayAll_) or use keyed lookups");
            }
        }
        if (s == "for" && tok(f, i + 1) == "(") {
            // Range-for over an unordered container: scan the header
            // for `: name )` at paren depth 1.
            std::size_t k = i + 2;
            int depth = 1;
            bool colon = false;
            std::string last;
            while (k < t.size() && depth > 0) {
                const std::string &x = t[k].text;
                if (x == "(")
                    ++depth;
                else if (x == ")")
                    --depth;
                else if (x == ":" && depth == 1 &&
                         tok(f, k + 1) != ":" && tok(f, k - 1) != ":")
                    colon = true;
                else if (depth >= 1 && colon)
                    last = x;
                ++k;
            }
            if (colon && unordered.count(last)) {
                emit(out, f, t[i].line, kDeterminism,
                     "range-for over unordered container '" + last +
                         "' exposes hash order; iterate an "
                         "insertion-order view instead");
            }
        }
    }
}

// --- sam-cycle-accounting ----------------------------------------------

void
checkCycleAccounting(const Corpus &corpus, const SourceFile &f,
                     Emit out)
{
    const std::string dir = f.dir();
    const bool engine = dir == "src/dram" || dir == "src/check";
    const auto &t = f.tokens;
    const auto allowed = [&](const std::string &member) {
        if (engine)
            return true;
        const auto it = corpus.cycleDirs.find(member);
        return it != corpus.cycleDirs.end() && it->second.count(dir);
    };
    const auto isCycleMember = [&](const std::string &name) {
        return corpus.cycleDirs.count(name) != 0;
    };
    const auto wallish = [](const std::string &name) {
        return name.find("wall") != std::string::npos ||
               name.find("Wall") != std::string::npos ||
               endsWith(name, "Ms") || endsWith(name, "Ns");
    };
    for (std::size_t i = 0; i < t.size(); ++i) {
        const std::string &s = t[i].text;
        if (!isCycleMember(s))
            continue;
        const std::string &prev = tok(f, i - 1);
        const std::string &next = tok(f, i + 1);
        // Declarations are not mutations.
        if (prev == "Cycle" || prev == "&" || prev == "*")
            continue;
        // Only member accesses (`x.field`, `p->field`) can be
        // foreign state; a bare name is a local or our own field.
        const bool memberAccess = prev == "." || prev == ">";
        const bool assign = next == "=" && tok(f, i + 2) != "=";
        const bool compound =
            (next == "+" || next == "-") && tok(f, i + 2) == "=";
        const bool increment =
            (next == "+" && tok(f, i + 2) == "+") ||
            (next == "-" && tok(f, i + 2) == "-");
        if (memberAccess && (assign || compound || increment) &&
            !allowed(s)) {
            emit(out, f, t[i].line, kCycle,
                 "mutation of Cycle-typed field '" + s +
                     "' outside its declaring module and the engine "
                     "path (src/dram, src/check); route simulated-time "
                     "updates through the owning module");
            continue;
        }
        // Cross-clock-domain comparison: Cycle vs wall-clock value.
        const bool cmpNext =
            (next == "<" || next == ">") && tok(f, i + 2) != "<" &&
            tok(f, i + 2) != ">";
        std::string other;
        if (cmpNext)
            other = tok(f, i + 2) == "=" ? tok(f, i + 3)
                                         : tok(f, i + 2);
        else if ((prev == "<" || prev == ">") && tok(f, i - 2) != "<" &&
                 tok(f, i - 2) != ">")
            other = tok(f, i - 2) == "=" ? tok(f, i - 3)
                                         : tok(f, i - 2);
        if (!other.empty() && wallish(other)) {
            emit(out, f, t[i].line, kCycle,
                 "comparison of Cycle-typed '" + s +
                     "' against wall-clock-named '" + other +
                     "': simulated cycles and host time are different "
                     "clock domains");
        }
    }
}

// --- sam-observer-discipline -------------------------------------------

void
checkObserverDiscipline(const SourceFile &f, Emit out)
{
    const auto &t = f.tokens;
    std::vector<std::size_t> attaches;
    bool detaches = false;
    for (std::size_t i = 0; i < t.size(); ++i) {
        const std::string &s = t[i].text;
        const std::string &prev = tok(f, i - 1);
        const bool call = tok(f, i + 1) == "(" &&
                          (prev == "." || prev == ">");
        if (s == "addCommandObserver" && call)
            attaches.push_back(i);
        if (s == "removeCommandObserver" && call)
            detaches = true;
    }
    for (std::size_t i : attaches) {
        if (!detaches) {
            emit(out, f, t[i].line, kObserver,
                 "addCommandObserver without a matching "
                 "removeCommandObserver in this translation unit; a "
                 "dangling observer is a use-after-free once the "
                 "observer is destroyed first");
        }
        // The observer callback must not reach back into the device:
        // scan the lambda body (if any) inside the call's arguments.
        std::size_t k = i + 2;
        int paren = 1;
        while (k < t.size() && paren > 0 && tok(f, k) != "[") {
            if (tok(f, k) == "(")
                ++paren;
            else if (tok(f, k) == ")")
                --paren;
            ++k;
        }
        if (k >= t.size() || paren == 0)
            continue; // No lambda argument.
        while (k < t.size() && tok(f, k) != "{")
            ++k;
        std::size_t body = k + 1;
        int brace = 1;
        while (body < t.size() && brace > 0) {
            const std::string &x = tok(f, body);
            if (x == "{")
                ++brace;
            else if (x == "}")
                --brace;
            else if ((x == "dev" || x == "device" || x == "device_") &&
                     (tok(f, body + 1) == "." ||
                      tok(f, body + 1) == "-")) {
                emit(out, f, t[body].line, kObserver,
                     "observer callback reaches back into the "
                     "observed device ('" + x +
                         "'); observers must record, not mutate "
                         "engine state");
            }
            ++body;
        }
    }
}

// --- sam-locking -------------------------------------------------------

void
checkLocking(const SourceFile &f, Emit out)
{
    static const std::set<std::string> kRaw = {
        "mutex",        "recursive_mutex", "timed_mutex",
        "shared_mutex", "lock_guard",      "unique_lock",
        "scoped_lock",  "condition_variable",
    };
    const auto &t = f.tokens;
    for (std::size_t i = 0; i < t.size(); ++i) {
        if (!kRaw.count(t[i].text))
            continue;
        if (tok(f, i - 1) != ":" || tok(f, i - 2) != ":" ||
            tok(f, i - 3) != "std")
            continue;
        emit(out, f, t[i].line, kLocking,
             "raw std::" + t[i].text +
                 "; use sam::Mutex / sam::MutexLock "
                 "(src/common/thread_annotations.hh) so the lock "
                 "discipline stays visible to -Wthread-safety");
    }
}

// --- sam-codec-construction --------------------------------------------

/** Files allowed to construct or own codecs directly: the registry
 *  itself, the codec implementations, and the EccEngine (whose
 *  PrivateCodec test seam owns one by design). */
bool
codecConstructionAllowed(const std::string &path)
{
    return startsWith(path, "src/ecc/codec_registry") ||
           startsWith(path, "src/ecc/reed_solomon") ||
           startsWith(path, "src/ecc/gf256") ||
           startsWith(path, "src/ecc/ecc_engine");
}

void
checkCodecConstruction(const SourceFile &f, Emit out)
{
    if (codecConstructionAllowed(f.path))
        return;
    const auto &t = f.tokens;
    for (std::size_t i = 0; i < t.size(); ++i) {
        const std::string &s = t[i].text;
        if (s == "ReedSolomon") {
            // Reference/pointer use and forward declarations are fine;
            // anything else (ReedSolomon rs(18, 16), by-value member,
            // optional<ReedSolomon>, make_unique<ReedSolomon>)
            // rebuilds the generator and syndrome tables -- the cost
            // the shared CodecRegistry exists to pay once.
            const std::string &next = tok(f, i + 1);
            const std::string &prev = tok(f, i - 1);
            if (next == "&" || next == "*")
                continue;
            if (prev == "class" || prev == "struct")
                continue;
            emit(out, f, t[i].line, kCodec,
                 "direct ReedSolomon construction or ownership; "
                 "borrow the shared immutable codec via "
                 "CodecRegistry::reedSolomon(n, k) "
                 "(src/ecc/codec_registry.hh)");
        } else if (s == "GF256") {
            // GF256::mul(...) etc. is fine (its tables are shared
            // compile-time constants); `GF256 gf;` declares an instance
            // of an all-static class.
            const std::string &next = tok(f, i + 1);
            if (next == ":" || next == "&" || next == "*")
                continue;
            const std::string &prev = tok(f, i - 1);
            if (prev == "class" || prev == "struct")
                continue;
            emit(out, f, t[i].line, kCodec,
                 "GF256 instance declaration; use the shared "
                 "compile-time tables through GF256's static "
                 "interface");
        }
    }
}

// --- sam-include-guard -------------------------------------------------

/** SAM_<DIR>_<FILE>_HH for a header below src/. */
std::string
expectedGuard(const std::string &path)
{
    std::string guard = "SAM_";
    for (const char c : path.substr(std::string("src/").size())) {
        guard += c == '/' || c == '-' || c == '.'
                     ? '_'
                     : static_cast<char>(
                           std::toupper(static_cast<unsigned char>(c)));
    }
    return guard;
}

void
checkIncludeGuard(const SourceFile &f, Emit out)
{
    const std::vector<Directive> &d = f.directives;
    // The guard is the first `#ifndef` with a `#define` on the next line.
    std::size_t i = 0;
    while (i + 1 < d.size() &&
           !(d[i].name == "ifndef" && d[i + 1].name == "define" &&
             d[i + 1].line == d[i].line + 1))
        ++i;
    if (i + 1 >= d.size()) {
        emit(out, f, 1, kGuard, "missing #ifndef/#define include guard");
        return;
    }
    const std::string guard = expectedGuard(f.path);
    if (d[i].arg != guard) {
        emit(out, f, d[i].line, kGuard,
             "include guard '" + d[i].arg + "' should be '" + guard + "'");
    } else if (d[i + 1].arg != guard) {
        emit(out, f, d[i + 1].line, kGuard,
             "guard #define '" + d[i + 1].arg +
                 "' does not match #ifndef '" + guard + "'");
    }
}

// --- sam-include-path --------------------------------------------------

void
checkIncludePath(const SourceFile &f, const std::string &root, Emit out)
{
    for (const Directive &d : f.directives) {
        if (d.name != "include" || d.arg.size() < 2 || d.arg[0] != '"')
            continue;
        const std::string target = d.arg.substr(1, d.arg.find('"', 1) - 1);
        if (std::filesystem::exists(std::filesystem::path(root) / target))
            continue;
        emit(out, f, d.line, kIncludePath,
             "project include \"" + target +
                 "\" must use the repo-root-relative form (src/..., "
                 "bench/...)");
    }
}

// --- sam-stats-registration --------------------------------------------

/**
 * Members registered in `f`: the last name of the member argument of
 * each addCounter / addAccum call (`g.addCounter("x", s.reads, ...)`
 * registers `reads`; the name literal is stripped by the lexer).
 */
void
collectRegistered(const SourceFile &f, std::set<std::string> &names)
{
    for (std::size_t i = 0; i < f.tokens.size(); ++i) {
        const std::string &s = tok(f, i);
        if ((s != "addCounter" && s != "addAccum") || tok(f, i + 1) != "(" ||
            tok(f, i + 2) != ",")
            continue;
        std::size_t k = i + 3;
        while (isIdent(tok(f, k)) && tok(f, k + 1) == "." &&
               isIdent(tok(f, k + 2)))
            k += 2;
        if (isIdent(tok(f, k)))
            names.insert(tok(f, k));
    }
}

void
checkStatsRegistration(const Corpus &corpus, const SourceFile &f,
                       Emit out)
{
    const std::string impl = f.path.substr(0, f.path.size() - 3) + ".cc";
    std::set<std::string> registered;
    collectRegistered(f, registered);
    const auto it = corpus.byPath.find(impl);
    if (it != corpus.byPath.end())
        collectRegistered(*it->second, registered);
    const std::string implName = impl.substr(impl.rfind('/') + 1);

    const auto &t = f.tokens;
    for (std::size_t i = 0; i + 2 < t.size(); ++i) {
        if (t[i].text != "struct" || !endsWith(t[i + 1].text, "Stats") ||
            t[i + 2].text != "{")
            continue;
        // The struct body, and whether it declares registerIn.
        const std::size_t open = i + 2;
        std::size_t close = open + 1;
        bool hasRegisterIn = false;
        for (int depth = 1; close < t.size(); ++close) {
            depth += t[close].text == "{";
            depth -= t[close].text == "}";
            if (depth == 0)
                break;
            hasRegisterIn = hasRegisterIn || t[close].text == "registerIn";
        }
        if (!hasRegisterIn)
            continue;
        for (std::size_t k = open + 1; k + 2 < close; ++k) {
            if ((t[k].text != "Counter" && t[k].text != "Accum") ||
                !isIdent(t[k + 1].text) || t[k + 2].text != ";" ||
                registered.count(t[k + 1].text))
                continue;
            emit(out, f, t[k + 1].line, kStats,
                 t[i + 1].text + "::" + t[k + 1].text +
                     " is never registered via addCounter/addAccum in " +
                     implName);
        }
    }
}

} // namespace

std::vector<std::string>
allCheckNames()
{
    return {kDeterminism, kCycle,       kObserver, kLocking,
            kCodec,       kGuard,       kIncludePath, kStats};
}

std::vector<Finding>
runChecks(const std::vector<SourceFile> &files, const LintOptions &opt)
{
    Corpus corpus{files, {}, {}, {}};
    for (const SourceFile &f : files)
        corpus.byPath.emplace(f.path, &f);
    buildSurface(corpus);
    buildCycleDirs(corpus);
    const auto enabled = [&](const char *name) {
        return opt.checks.empty() ||
               std::find(opt.checks.begin(), opt.checks.end(), name) !=
                   opt.checks.end();
    };
    std::vector<Finding> out;
    for (const SourceFile &f : files) {
        if (enabled(kIncludePath))
            checkIncludePath(f, opt.root, out);
        if (!codeScope(f.path))
            continue;
        const bool srcHeader =
            startsWith(f.path, "src/") && endsWith(f.path, ".hh");
        if (enabled(kGuard) && srcHeader)
            checkIncludeGuard(f, out);
        if (enabled(kStats) && srcHeader)
            checkStatsRegistration(corpus, f, out);
        if (enabled(kDeterminism) &&
            (opt.allSurface || corpus.surface.count(f.path)))
            checkDeterminism(f, out);
        if (enabled(kCycle))
            checkCycleAccounting(corpus, f, out);
        if (enabled(kObserver))
            checkObserverDiscipline(f, out);
        if (enabled(kLocking))
            checkLocking(f, out);
        if (enabled(kCodec))
            checkCodecConstruction(f, out);
    }
    std::stable_sort(out.begin(), out.end(),
                     [](const Finding &a, const Finding &b) {
                         if (a.path != b.path)
                             return a.path < b.path;
                         return a.line < b.line;
                     });
    return out;
}

} // namespace samlint
