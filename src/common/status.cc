#include "common/status.h"

namespace mqo {

const char* StatusCodeToString(StatusCode code) {
  switch (code) {
    case StatusCode::kOk:
      return "OK";
    case StatusCode::kInvalidArgument:
      return "InvalidArgument";
    case StatusCode::kNotFound:
      return "NotFound";
    case StatusCode::kAlreadyExists:
      return "AlreadyExists";
    case StatusCode::kOutOfRange:
      return "OutOfRange";
    case StatusCode::kUnimplemented:
      return "Unimplemented";
    case StatusCode::kInternal:
      return "Internal";
    case StatusCode::kParseError:
      return "ParseError";
    case StatusCode::kFailedPrecondition:
      return "FailedPrecondition";
  }
  return "Unknown";
}

std::string Status::ToString() const {
  if (ok()) return "OK";
  std::string out = StatusCodeToString(code_);
  out += ": ";
  out += msg_;
  return out;
}

}  // namespace mqo
