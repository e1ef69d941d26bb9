// SiteDelta: what one telemetry site counted since construction.
//
// Arms the registry's counters tap for its lifetime (restoring the previous
// state on destruction), snapshots the named site, and returns the delta on
// get(). Tests read prefix statistics through it instead of per-structure
// counters; each gtest case runs in its own process, so a site's delta is
// exactly what the test body drove through it.
#pragma once

#include <functional>
#include <string_view>

#include "core/prefix.h"
#include "telemetry/registry.h"

class SiteDelta {
 public:
  explicit SiteDelta(std::string_view name)
      : site_(pto::telemetry::Registry::instance().intern(name)),
        was_on_(pto::telemetry::enabled()),
        base_(site_->snapshot()) {
    pto::telemetry::set_enabled(true);
  }
  SiteDelta(const SiteDelta&) = delete;
  SiteDelta& operator=(const SiteDelta&) = delete;
  ~SiteDelta() { pto::telemetry::set_enabled(was_on_); }

  pto::PrefixStats get() const {
    return site_->snapshot().zip(base_, std::minus<>());
  }

  pto::telemetry::Site* site() const { return site_; }

 private:
  pto::telemetry::Site* site_;
  bool was_on_;
  pto::PrefixStats base_;
};
