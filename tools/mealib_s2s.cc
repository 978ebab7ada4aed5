/**
 * @file
 * mealib-s2s: the standalone source-to-source compiler driver.
 *
 * Usage:
 *   mealib-s2s <input.c> [--out=<dir>] [--tdl-only] [--quiet]
 *
 * Reads a C source file, translates the accelerable library calls
 * (paper Sec. 3.4) and writes:
 *   <dir>/<input>.mea.c     transformed source
 *   <dir>/<input>.tdl       generated TDL program
 *   <dir>/<param files>     one .para file per COMP block
 * Diagnostics go to stderr; exit code 0 on success.
 */

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "common/cli.hh"
#include "common/logging.hh"
#include "s2s/compiler.hh"

using namespace mealib;

namespace {

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    fatalIf(!in, "cannot open input file '", path, "'");
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

void
writeFile(const std::string &path, const std::string &text)
{
    std::ofstream out(path, std::ios::binary);
    fatalIf(!out, "cannot write output file '", path, "'");
    out << text;
}

std::string
baseName(const std::string &path)
{
    auto slash = path.find_last_of('/');
    std::string name =
        slash == std::string::npos ? path : path.substr(slash + 1);
    auto dot = name.find_last_of('.');
    return dot == std::string::npos ? name : name.substr(0, dot);
}

} // namespace

int
main(int argc, char **argv)
{
    FlagTable table("Translate the accelerable library calls of a C file.",
                    "<input.c> [options]", 1);
    const Flag &out =
        table.add({"out", FlagType::String, ".", "output directory"});
    const Flag &tdlOnly = table.add(
        {"tdl-only", FlagType::Bool, "", "write only the TDL program"});
    const Flag &quiet =
        table.add({"quiet", FlagType::Bool, "", "no summary on stdout"});
    const Flags flags = table.parseOrExit(argc, argv);
    if (flags.positional().empty()) {
        std::fprintf(stderr, "usage: %s <input.c> [options]; see --help\n",
                     flags.program().c_str());
        return 2;
    }

    try {
        const std::string input = flags.positional()[0];
        const std::string outdir = flags.text(out);
        const std::string base = baseName(input);

        s2s::TranslationResult r = s2s::translate(readFile(input));

        for (const auto &d : r.notes)
            std::fprintf(stderr, "%s:%u: note: %s\n", input.c_str(),
                         d.line, d.message.c_str());

        writeFile(outdir + "/" + base + ".tdl", r.tdl);
        if (!flags.on(tdlOnly)) {
            writeFile(outdir + "/" + base + ".mea.c", r.source);
            for (const auto &[file, text] : r.paramFiles)
                writeFile(outdir + "/" + file, text);
        }

        if (!flags.on(quiet)) {
            std::printf("%s: %u plan site(s), %u allocation rewrites, "
                        "%llu library calls absorbed, %zu parameter "
                        "file(s)\n",
                        input.c_str(), r.plansEmitted, r.allocRewrites,
                        static_cast<unsigned long long>(r.callsAbsorbed),
                        r.paramFiles.size());
        }
        return 0;
    } catch (const FatalError &e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 1;
    }
}
