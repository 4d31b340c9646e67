// Persistence of the full deployable per-user model (core::UserModel).
//
// Extends ml::serialize's scaler+SVM format with the pipeline parameters
// the artefact was trained under — a model is only valid together with its
// window length, grid size, version and arithmetic, so they travel in the
// same file:
//
//   sift-user-model v2
//   crc32 <8-hex> <body-bytes>
//   user_id <n>
//   version Original|Simplified|Reduced
//   arithmetic double|float32|Q16.16
//   window_s <seconds>
//   grid_n <n>
//   <ml::serialize body>
#pragma once

#include <iosfwd>
#include <string>

#include "core/trainer.hpp"

namespace sift::io {

void write_user_model(std::ostream& os, const core::UserModel& model);
void save_user_model(const std::string& path, const core::UserModel& model);

/// @throws std::runtime_error on malformed input or unknown enum names.
core::UserModel read_user_model(std::istream& is);
core::UserModel load_user_model(const std::string& path);

}  // namespace sift::io
