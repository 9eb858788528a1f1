#include "common/diagnostics.h"

#include <cstdlib>

#include "common/json.h"

namespace cascade {

std::string
Diagnostic::str() const
{
    std::string out = severity == Severity::Error ? "error: " : "warning: ";
    if (loc.valid()) {
        out += loc.str() + ": ";
    }
    out += message;
    return out;
}

void
Diagnostics::error(SourceLoc loc, std::string msg)
{
    diags_.push_back({Severity::Error, loc, std::move(msg)});
    ++num_errors_;
}

void
Diagnostics::warning(SourceLoc loc, std::string msg)
{
    diags_.push_back({Severity::Warning, loc, std::move(msg)});
}

std::string
Diagnostics::str() const
{
    std::string out;
    for (const auto& d : diags_) {
        out += d.str();
        out += '\n';
    }
    return out;
}

void
Diagnostics::clear()
{
    diags_.clear();
    num_errors_ = 0;
}

const char*
log_level_name(LogLevel level)
{
    switch (level) {
        case LogLevel::Error: return "error";
        case LogLevel::Warn: return "warn";
        case LogLevel::Info: return "info";
        case LogLevel::Debug: return "debug";
    }
    return "?";
}

Logger&
Logger::instance()
{
    static Logger* logger = new Logger(); // leaked: outlives static dtors
    return *logger;
}

Logger::Logger()
{
    const char* env = std::getenv("CASCADE_LOG");
    if (env == nullptr) {
        return;
    }
    std::string spec = env;
    size_t start = 0;
    while (start <= spec.size()) {
        size_t end = spec.find(',', start);
        if (end == std::string::npos) {
            end = spec.size();
        }
        const std::string token = spec.substr(start, end - start);
        if (token == "off") {
            level_ = static_cast<LogLevel>(-1);
        } else if (token == "error") {
            level_ = LogLevel::Error;
        } else if (token == "warn") {
            level_ = LogLevel::Warn;
        } else if (token == "info") {
            level_ = LogLevel::Info;
        } else if (token == "debug") {
            level_ = LogLevel::Debug;
        } else if (token == "json") {
            json_ = true;
        }
        start = end + 1;
    }
}

void
Logger::write(LogLevel level, const char* component,
              const std::string& message)
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::FILE* out = stream_ != nullptr ? stream_ : stderr;
    if (json_) {
        const std::string line = JsonWriter()
                                     .str("log", "cascade")
                                     .str("level", log_level_name(level))
                                     .str("component", component)
                                     .str("msg", message)
                                     .build();
        std::fprintf(out, "%s\n", line.c_str());
    } else {
        std::fprintf(out, "cascade[%s] %s: %s\n", log_level_name(level),
                     component, message.c_str());
    }
    std::fflush(out);
}

void
Logger::set_stream(std::FILE* stream)
{
    std::lock_guard<std::mutex> lock(mutex_);
    stream_ = stream;
}

} // namespace cascade
