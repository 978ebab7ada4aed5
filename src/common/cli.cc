#include "common/cli.hh"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <thread>

#include "common/logging.hh"
#include "common/parallel.hh"

namespace mealib {

namespace {

MealibError
invalid(const std::string &msg)
{
    return MealibError(Status::error(ErrorCode::InvalidArgument, msg));
}

std::vector<std::string>
splitList(const std::string &s)
{
    std::vector<std::string> items;
    for (std::size_t pos = 0;;) {
        const std::size_t comma = s.find(',', pos);
        items.push_back(s.substr(pos, comma - pos));
        if (comma == std::string::npos)
            return items;
        pos = comma + 1;
    }
}

/** Whether @p v parses, as a whole, as a number of @p f's type in range. */
bool
inRange(const Flag &f, const std::string &v)
{
    char *end = nullptr;
    errno = 0;
    const double x = f.type == FlagType::Real
                         ? std::strtod(v.c_str(), &end)
                         : double(std::strtoll(v.c_str(), &end, 0));
    return !v.empty() && *end == '\0' && errno == 0 && x >= f.lo &&
           x <= f.hi;
}

/** What @p f accepts, for --help and error messages. */
std::string
accepted(const Flag &f)
{
    auto num = [&f](double v) {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%.*g",
                      f.type == FlagType::Real ? 6 : 19, v);
        return std::string(buf);
    };
    const std::string range =
        f.hi < HUGE_VAL    ? " in [" + num(f.lo) + ", " + num(f.hi) + "]"
        : f.lo > -HUGE_VAL ? " >= " + num(f.lo)
                           : "";
    switch (f.type) {
        case FlagType::Bool:
            return "no value";
        case FlagType::Int:
            return "an integer" + range;
        case FlagType::Real:
            return "a number" + range;
        case FlagType::String:
            return "a non-empty value";
        case FlagType::Choice: {
            std::string s = "one of";
            for (const std::string &c : f.choices)
                s += (&c == &f.choices[0] ? " " : " | ") + c;
            return s;
        }
        case FlagType::IntList:
            return "a comma-separated list of integers" + range;
    }
    return "";
}

bool
acceptable(const Flag &f, const std::string &v)
{
    switch (f.type) {
        case FlagType::Bool:
            return v.empty();
        case FlagType::String:
            return !v.empty();
        case FlagType::Choice:
            return std::find(f.choices.begin(), f.choices.end(), v) !=
                   f.choices.end();
        case FlagType::IntList:
            for (const std::string &item : splitList(v))
                if (!inRange(f, item))
                    return false;
            return true;
        default:
            return inRange(f, v);
    }
}

} // namespace

Flag
Flag::in(ModeSet m) const
{
    Flag f = *this;
    f.modes = m;
    return f;
}

Status
Flag::check(const std::string &value) const
{
    if (acceptable(*this, value))
        return Status();
    return Status::error(ErrorCode::InvalidArgument,
                         "--" + name + " expects " + accepted(*this) +
                             ", got '" + value + "'");
}

const Flag &
envFlag(Env var)
{
    static const std::vector<Flag> rows = [] {
        const unsigned hw = std::thread::hardware_concurrency();
        std::vector<Flag> r = {
            {"MEALIB_NUM_THREADS", FlagType::Int,
             std::to_string(hw == 0 ? 1 : hw),
             "threads partitioning kernel loops", 1,
             ThreadPool::kMaxWorkers + 1},
            {"MEALIB_SIMD", FlagType::Choice, "auto", "kernel SIMD backend",
             0, 0, {"scalar", "sse4", "sse4.2", "avx2", "avx512", "auto"}},
            {"MEALIB_MACHINE", FlagType::Choice, "haswell4770k",
             "hardware-model profile", 0, 0,
             {"haswell4770k", "xeonphi5110p", "haswell", "phi", "xeonphi"}},
            {"MEALIB_OFFLOAD_POLICY", FlagType::Choice, "host",
             "process-wide offload policy", 0, 0,
             {"host", "accel", "crossover", "calibrated"}},
        };
        for (Flag &f : r)
            f.env = f.name;
        return r;
    }();
    return rows[static_cast<std::size_t>(var)];
}

Flag
envBackedFlag(std::string name, Env var, std::string help)
{
    Flag f = envFlag(var);
    f.name = std::move(name);
    f.help = std::move(help);
    return f;
}

std::string
envValue(const Flag &row)
{
    const char *v = std::getenv(row.env.c_str());
    if (v == nullptr || *v == '\0')
        return row.def;
    if (!acceptable(row, v))
        throw invalid(row.env + "='" + v + "' is invalid; expected " +
                      accepted(row));
    return v;
}

// --- Flags ----------------------------------------------------------------

const std::string &
Flags::value(const Flag &f, FlagType type) const
{
    fatalIf(f.type != type && !(f.type == FlagType::Choice &&
                                 type == FlagType::String),
            "flag --", f.name, " read as the wrong type");
    auto it = values_.find(f.name);
    return it == values_.end() ? f.def : it->second;
}

std::vector<std::int64_t>
Flags::ints(const Flag &f) const
{
    std::vector<std::int64_t> out;
    for (const std::string &item : splitList(value(f, FlagType::IntList)))
        out.push_back(std::strtoll(item.c_str(), nullptr, 0));
    return out;
}

void
Flags::requireMode(ModeSet mode) const
{
    for (const auto &[name, v] : values_) {
        const Flag *row = table_->find(name);
        if ((row->modes & mode) == 0)
            throw invalid("--" + name + " does nothing on " +
                          table_->modeNames(mode) + "; it applies to " +
                          table_->modeNames(row->modes));
    }
}

// --- FlagTable ------------------------------------------------------------

FlagTable::FlagTable(std::string summary, std::string usage,
                     std::size_t maxPositional,
                     std::vector<std::string> modeNames)
    : summary_(std::move(summary)), usage_(std::move(usage)),
      maxPositional_(maxPositional), modeNames_(std::move(modeNames))
{
}

const Flag &
FlagTable::add(Flag row)
{
    fatalIf(find(row.name) != nullptr || row.name == "help", "flag --",
            row.name, " declared twice");
    rows_.push_back(std::move(row));
    return rows_.back();
}

const Flag *
FlagTable::find(const std::string &name) const
{
    for (const Flag &f : rows_)
        if (f.name == name)
            return &f;
    return nullptr;
}

std::string
FlagTable::modeNames(ModeSet modes) const
{
    std::string s;
    for (std::size_t i = 0; i < modeNames_.size(); ++i)
        if (modes & (1u << i))
            s += (s.empty() ? "" : ", ") + modeNames_[i];
    return s;
}

Flags
FlagTable::parse(int argc, const char *const *argv) const
{
    for (Env var :
         {Env::NumThreads, Env::Simd, Env::Machine, Env::OffloadPolicy})
        envValue(envFlag(var));

    Flags out;
    out.table_ = this;
    out.program_ = argc > 0 ? argv[0] : "";
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg.rfind("--", 0) != 0) {
            out.positional_.push_back(arg);
            continue;
        }
        const std::size_t eq = arg.find('=');
        const std::string name = arg.substr(2, eq - 2);
        const Flag *row = find(name);
        if (row == nullptr)
            throw invalid("unknown flag --" + name + "; see --help");
        if (out.given(*row))
            throw invalid("--" + name + " given twice");
        std::string value;
        if (eq != std::string::npos) {
            if (row->type == FlagType::Bool)
                throw invalid("--" + name + " takes no value");
            value = arg.substr(eq + 1);
        } else if (row->type != FlagType::Bool) {
            // `--key value`: the next token is the value even when it
            // starts with '-' (a negative number), never a `--flag`.
            if (i + 1 == argc || std::string(argv[i + 1]).rfind("--", 0) == 0)
                throw invalid("--" + name + " needs a value");
            value = argv[++i];
        }
        row->check(value).orThrow();
        out.values_[name] = value;
    }
    if (out.positional_.size() > maxPositional_)
        throw invalid("unexpected argument '" +
                      out.positional_[maxPositional_] + "'; see --help");
    return out;
}

Flags
FlagTable::parseOrExit(
    int argc, const char *const *argv,
    const std::function<ModeSet(const Flags &)> &mode) const
{
    const std::string program = argc > 0 ? argv[0] : "";
    try {
        for (int i = 1; i < argc; ++i) {
            if (std::string(argv[i]) == "--help") {
                std::fputs(help(program).c_str(), stdout);
                std::exit(0);
            }
        }
        Flags flags = parse(argc, argv);
        if (mode)
            flags.requireMode(mode(flags));
        return flags;
    } catch (const MealibError &e) {
        std::fprintf(stderr, "%s: %s\n", program.c_str(), e.what());
        std::exit(2);
    }
}

std::string
FlagTable::help(const std::string &program) const
{
    std::string s = "usage: " + program + " " +
                    (usage_.empty() ? "[options]" : usage_) + "\n\n" +
                    summary_ + "\n\noptions:\n";
    static const char *const kValue[] = {"", "=N", "=X", "=S", "=C",
                                         "=N,..."};
    for (const Flag &f : rows_) {
        std::string left = "  --" + f.name + kValue[int(f.type)];
        left.resize(std::max<std::size_t>(left.size() + 2, 26), ' ');
        s += left + f.help + "\n";
        std::string detail;
        if (f.type != FlagType::Bool)
            detail = "takes " + accepted(f) +
                     (f.def.empty() ? "" : "; default " + f.def);
        if (f.modes != kAnyMode)
            detail += (detail.empty() ? "only on " : "; only on ") +
                      modeNames(f.modes);
        if (!f.env.empty()) {
            std::string now;
            try {
                now = envValue(f);
            } catch (const MealibError &) {
                now = "invalid";
            }
            detail += "; unset follows " + f.env + " (now " + now + ")";
        }
        if (!detail.empty())
            s += std::string(28, ' ') + detail + "\n";
    }
    return s + "  --help                  print this text and exit\n";
}

} // namespace mealib
