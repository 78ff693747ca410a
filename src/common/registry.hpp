/**
 * @file
 * The string-keyed map behind every runtime-extensible registry in the
 * library: backends (`core/backend_registry.hpp`), optimizers
 * (`opt/optimizer_registry.hpp`) and problem families
 * (`problems/problem.hpp`). Each of those modules owns one process-wide
 * `Registry<Entry>` and keeps its public `register_*`, `registered_*`
 * and `make_*` functions as thin forwards onto it.
 *
 * Every instance carries its own mutex (registered as
 * "registry_mutex" in the lock-order manifest), so two registries never
 * share a lock. The mutex is a leaf: it is held only while the map is
 * read or written, never while an entry (a factory) runs — lookups copy
 * the entry out first, so a factory may itself resolve other keys.
 */
#ifndef CAFQA_COMMON_REGISTRY_HPP
#define CAFQA_COMMON_REGISTRY_HPP

#include <initializer_list>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/thread_safety.hpp"

namespace cafqa {

/** Thread-safe sorted map from key to `Entry` (a factory, usually). */
template <class Entry>
class Registry
{
  public:
    /** `noun` names one key in error messages ("backend kind");
     *  `built_ins` are the entries present from the start. */
    Registry(std::string noun,
             std::initializer_list<std::pair<const std::string, Entry>>
                 built_ins)
        : noun_(std::move(noun)), map_(built_ins)
    {
    }

    Registry(const Registry&) = delete;
    Registry& operator=(const Registry&) = delete;

    /** Register (or replace) `entry` under `key`. */
    void add(const std::string& key, Entry entry)
    {
        MutexLock lock(registry_mutex_);
        map_[key] = std::move(entry);
    }

    /** A copy of the entry under `key`, or nullopt. */
    std::optional<Entry> find(const std::string& key) const
    {
        MutexLock lock(registry_mutex_);
        const auto it = map_.find(key);
        if (it == map_.end()) {
            return std::nullopt;
        }
        return it->second;
    }

    /**
     * A copy of the entry under `key`. An unknown key throws
     * std::invalid_argument with the message
     * `unknown <noun> "<key>"<context> (registered: <keys><hint>)`,
     * listing the registered keys in order.
     */
    Entry get(const std::string& key, std::string_view context = {},
              std::string_view hint = {}) const
    {
        std::optional<Entry> entry = find(key);
        if (!entry) {
            std::string all;
            for (const std::string& name : names()) {
                all += all.empty() ? name : ", " + name;
            }
            CAFQA_REQUIRE(false, "unknown " + noun_ + " \"" + key + "\"" +
                                     std::string(context) +
                                     " (registered: " + all +
                                     std::string(hint) + ")");
        }
        return *std::move(entry);
    }

    /** The registered keys, sorted. */
    std::vector<std::string> names() const
    {
        MutexLock lock(registry_mutex_);
        std::vector<std::string> keys;
        keys.reserve(map_.size());
        for (const auto& [key, entry] : map_) {
            keys.push_back(key);
        }
        return keys;
    }

    /** Copies of every (key, entry) pair, sorted by key. */
    std::vector<std::pair<std::string, Entry>> entries() const
    {
        MutexLock lock(registry_mutex_);
        return {map_.begin(), map_.end()};
    }

  private:
    const std::string noun_;
    mutable Mutex registry_mutex_{"registry_mutex"};
    std::map<std::string, Entry> map_ CAFQA_GUARDED_BY(registry_mutex_);
};

} // namespace cafqa

#endif // CAFQA_COMMON_REGISTRY_HPP
