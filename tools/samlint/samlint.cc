/**
 * @file
 * samlint driver: runs the project-specific static checks over the
 * repository's C++ sources.
 *
 * Usage:
 *     samlint --root <repo-root> [--check name]... [paths...]
 *     samlint --list-checks
 *
 * With no explicit paths, every .hh/.cc/.h/.cpp under src/, tools/,
 * tests/, bench/ and examples/ (minus samlint's own fixtures) is
 * scanned; each check keeps to its own scope (checks.hh). Exit status
 * is 1 when any finding survives NOLINT suppression, 0 otherwise.
 */

#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "tools/samlint/checks.hh"
#include "tools/samlint/lexer.hh"

namespace fs = std::filesystem;

namespace {

bool
isSource(const fs::path &p)
{
    const std::string ext = p.extension().string();
    return ext == ".hh" || ext == ".cc" || ext == ".h" || ext == ".cpp";
}

std::string
relPath(const fs::path &abs, const fs::path &root)
{
    return fs::relative(abs, root).generic_string();
}

void
collect(const fs::path &root, const fs::path &under,
        std::vector<samlint::SourceFile> &files)
{
    if (!fs::exists(under))
        return;
    for (const auto &ent : fs::recursive_directory_iterator(under)) {
        if (!ent.is_regular_file() || !isSource(ent.path()))
            continue;
        const std::string rel = relPath(ent.path(), root);
        // The linter's own fixtures contain deliberate violations.
        if (rel.rfind("tools/samlint/fixtures/", 0) == 0)
            continue;
        files.push_back(
            samlint::lexFile(ent.path().string(), rel));
    }
}

int
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s --root <repo-root> [--check name]... "
                 "[--all-surface] [paths...]\n"
                 "       %s --list-checks\n",
                 argv0, argv0);
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string root = ".";
    samlint::LintOptions opt;
    std::vector<std::string> paths;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--list-checks") {
            for (const std::string &c : samlint::allCheckNames())
                std::printf("%s\n", c.c_str());
            return 0;
        }
        if (arg == "--root" && i + 1 < argc) {
            root = argv[++i];
        } else if (arg == "--check" && i + 1 < argc) {
            opt.checks.push_back(argv[++i]);
        } else if (arg == "--all-surface") {
            opt.allSurface = true;
        } else if (!arg.empty() && arg[0] == '-') {
            return usage(argv[0]);
        } else {
            paths.push_back(arg);
        }
    }

    const fs::path rootPath = fs::absolute(root);
    std::vector<samlint::SourceFile> files;
    opt.root = rootPath.string();
    if (paths.empty()) {
        for (const char *dir : {"src", "tools", "tests", "bench", "examples"})
            collect(rootPath, rootPath / dir, files);
    } else {
        for (const std::string &p : paths) {
            const fs::path abs =
                fs::path(p).is_absolute() ? fs::path(p) : rootPath / p;
            if (fs::is_directory(abs))
                collect(rootPath, abs, files);
            else if (fs::exists(abs))
                files.push_back(samlint::lexFile(
                    abs.string(), relPath(abs, rootPath)));
            else
                std::fprintf(stderr, "samlint: no such path: %s\n",
                             p.c_str());
        }
    }

    const std::vector<samlint::Finding> findings =
        samlint::runChecks(files, opt);
    for (const samlint::Finding &f : findings) {
        std::printf("%s:%u: [%s] %s\n", f.path.c_str(), f.line,
                    f.check.c_str(), f.message.c_str());
    }
    std::printf("samlint: %zu file(s), %zu finding(s)\n", files.size(),
                findings.size());
    return findings.empty() ? 0 : 1;
}
