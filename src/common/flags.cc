#include "common/flags.h"

#include <cstdio>
#include <cstdlib>
#include <sstream>

#include "common/check.h"
#include "common/parse.h"

namespace vod {

FlagSet::FlagSet(std::string program) : program_(std::move(program)) {}

void FlagSet::Register(const std::string& name, Flag flag) {
  const bool inserted = flags_.emplace(name, std::move(flag)).second;
  if (!inserted) {
    std::fprintf(stderr, "FlagSet(%s): duplicate flag --%s\n",
                 program_.c_str(), name.c_str());
  }
  VOD_CHECK_MSG(inserted, "duplicate flag registration");
  order_.push_back(name);
}

void FlagSet::AddInt64(const std::string& name, int64_t default_value,
                       const std::string& help) {
  Flag f;
  f.type = Type::kInt64;
  f.help = help;
  f.int_value = default_value;
  f.default_text = std::to_string(default_value);
  Register(name, std::move(f));
}

void FlagSet::AddDouble(const std::string& name, double default_value,
                        const std::string& help) {
  Flag f;
  f.type = Type::kDouble;
  f.help = help;
  f.double_value = default_value;
  std::ostringstream os;
  os << default_value;
  f.default_text = os.str();
  Register(name, std::move(f));
}

void FlagSet::AddBool(const std::string& name, bool default_value,
                      const std::string& help) {
  Flag f;
  f.type = Type::kBool;
  f.help = help;
  f.bool_value = default_value;
  f.default_text = default_value ? "true" : "false";
  Register(name, std::move(f));
}

void FlagSet::AddString(const std::string& name,
                        const std::string& default_value,
                        const std::string& help) {
  Flag f;
  f.type = Type::kString;
  f.help = help;
  f.string_value = default_value;
  f.default_text = default_value;
  Register(name, std::move(f));
}

Status FlagSet::SetFromText(const std::string& name, const std::string& text) {
  auto it = flags_.find(name);
  if (it == flags_.end()) {
    return Status::InvalidArgument("unknown flag --" + name);
  }
  Flag& f = it->second;
  switch (f.type) {
    case Type::kInt64: {
      VOD_ASSIGN_OR_RETURN(f.int_value,
                           ParseNamed("flag --" + name, ParseInt64, text));
      break;
    }
    case Type::kDouble: {
      VOD_ASSIGN_OR_RETURN(f.double_value,
                           ParseNamed("flag --" + name, ParseDouble, text));
      break;
    }
    case Type::kBool: {
      if (text == "true" || text == "1" || text == "yes") {
        f.bool_value = true;
      } else if (text == "false" || text == "0" || text == "no") {
        f.bool_value = false;
      } else {
        return Status::InvalidArgument("flag --" + name +
                                       " expects true/false, got '" + text +
                                       "'");
      }
      break;
    }
    case Type::kString:
      f.string_value = text;
      break;
  }
  return Status::OK();
}

Status FlagSet::Parse(int argc, char** argv, bool exit_on_help) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      std::fputs(Usage().c_str(), stdout);
      if (exit_on_help) std::exit(0);
      continue;
    }
    if (arg.rfind("--", 0) != 0) {
      return Status::InvalidArgument("unexpected positional argument '" + arg +
                                     "'");
    }
    arg = arg.substr(2);
    std::string name;
    std::string value;
    const size_t eq = arg.find('=');
    if (eq != std::string::npos) {
      name = arg.substr(0, eq);
      value = arg.substr(eq + 1);
    } else {
      name = arg;
      auto it = flags_.find(name);
      if (it != flags_.end() && it->second.type == Type::kBool) {
        value = "true";  // bare --flag enables a bool
      } else if (i + 1 < argc) {
        value = argv[++i];
      } else {
        return Status::InvalidArgument("flag --" + name + " missing a value");
      }
    }
    VOD_RETURN_IF_ERROR(SetFromText(name, value));
  }
  return Status::OK();
}

const FlagSet::Flag& FlagSet::Find(const std::string& name, Type type) const {
  auto it = flags_.find(name);
  VOD_CHECK_MSG(it != flags_.end(), "flag not registered");
  VOD_CHECK_MSG(it->second.type == type, "flag type mismatch");
  return it->second;
}

int64_t FlagSet::GetInt64(const std::string& name) const {
  return Find(name, Type::kInt64).int_value;
}

double FlagSet::GetDouble(const std::string& name) const {
  return Find(name, Type::kDouble).double_value;
}

bool FlagSet::GetBool(const std::string& name) const {
  return Find(name, Type::kBool).bool_value;
}

const std::string& FlagSet::GetString(const std::string& name) const {
  return Find(name, Type::kString).string_value;
}

bool FlagSet::Has(const std::string& name) const {
  return flags_.find(name) != flags_.end();
}

std::string FlagSet::ValueText(const std::string& name) const {
  auto it = flags_.find(name);
  VOD_CHECK_MSG(it != flags_.end(), "flag not registered");
  const Flag& f = it->second;
  switch (f.type) {
    case Type::kInt64:
      return std::to_string(f.int_value);
    case Type::kDouble: {
      char text[32];
      std::snprintf(text, sizeof(text), "%.17g", f.double_value);
      return text;
    }
    case Type::kBool:
      return f.bool_value ? "true" : "false";
    case Type::kString:
      break;
  }
  return f.string_value;
}

std::string FlagSet::Usage() const {
  std::ostringstream os;
  os << "Usage: " << program_ << " [--flag=value ...]\n\nFlags:\n";
  for (const auto& name : order_) {
    const Flag& f = flags_.at(name);
    os << "  --" << name << "  (default: " << f.default_text << ")\n      "
       << f.help << "\n";
  }
  return os.str();
}

}  // namespace vod
