/**
 * @file
 * One field list per record.
 *
 * A record (SimConfig and its nested params, ServerWorkloadParams,
 * SimResult, the simulator's counters, the interval sampler's
 * records) declares beside its definition one
 *
 *     template <RecordOf<Rec> Self, class V>
 *     friend constexpr void visitFields(Self &rec, V &&v);
 *
 * calling `v(name, rec.member[, tag])` once per member, in
 * declaration order. The cache keys, the JSON records, the snapshot
 * encodings and the tests walk that list instead of keeping their
 * own. A nested record is one visit; consumers that want its fields
 * recurse with visitFields(). The names are the key or JSON
 * spellings the consumers emit.
 */

#ifndef MORRIGAN_COMMON_FIELDS_HH
#define MORRIGAN_COMMON_FIELDS_HH

#include <array>
#include <concepts>
#include <cstddef>
#include <cstdint>
#include <string>
#include <type_traits>

namespace morrigan
{

/** How consumers treat a visited field. */
enum class FieldTag : std::uint8_t
{
    Plain,        //!< keyed and serialized
    MeasureOnly,  //!< config: in experiment keys, not warmup keys
    /** Neither keyed nor serialized: a label fixed by position
     * (CacheParams::name) or a value carried beside the record
     * (SimResult::checkReport). */
    Unrecorded,
};

/** @p Self is record @p T, possibly const. */
template <class Self, class T>
concept RecordOf = std::same_as<std::remove_const_t<Self>, T>;

namespace fields_detail
{

struct NoVisit
{
    template <class T>
    constexpr void
    operator()(const char *, T &, FieldTag = FieldTag::Plain) const
    {
    }
};

struct AnyMember
{
    template <class T>
    constexpr operator T() const noexcept;
};

/** Members of aggregate @p T: the longest `T{AnyMember...}`. */
template <class T, class... Init>
constexpr std::size_t
memberCount()
{
    if constexpr (requires { T{Init{}..., AnyMember{}}; })
        return memberCount<T, Init..., AnyMember>();
    else
        return sizeof...(Init);
}

} // namespace fields_detail

/** Types that declare visitFields(). */
template <class T>
concept Record = requires(T &r) {
    visitFields(r, fields_detail::NoVisit{});
};

/**
 * Whether visitFields() makes one visit per member of @p T. Each
 * record is followed by `static_assert(visitsEveryField<Rec>())`, so
 * a member added without a visit does not compile.
 */
template <class T>
constexpr bool
visitsEveryField()
{
    T rec{};
    std::size_t visits = 0;
    visitFields(rec, [&](const char *, auto &, FieldTag = {}) {
        ++visits;
    });
    return visits == fields_detail::memberCount<T>();
}

/** Visit the same field of @p a and @p b together:
 * `v(name, a.member, b.member)`, in visitFields() order. */
template <Record T, class V>
void
visitFieldPairs(T &a, const T &b, V &&v)
{
    // Only a fixed field list pairs up by position.
    static_assert(visitsEveryField<std::remove_const_t<T>>());
    std::array<const void *, fields_detail::memberCount<T>()> bs{};
    std::size_t i = 0;
    visitFields(b, [&](const char *, const auto &f, FieldTag = {}) {
        bs[i++] = &f;
    });
    i = 0;
    visitFields(a, [&](const char *name, auto &f, FieldTag = {}) {
        using F = std::remove_reference_t<decltype(f)>;
        v(name, f, *static_cast<const F *>(bs[i++]));
    });
}

/** f(name, value) for every scalar of record @p rec, nested records
 * and array elements under dotted names that start with @p prefix. */
template <class R, class F>
void
forEachScalar(const R &rec, const std::string &prefix, F &&f)
{
    visitFields(rec, [&](const char *key, const auto &v,
                         FieldTag = FieldTag::Plain) {
        using T = std::remove_cvref_t<decltype(v)>;
        const std::string name = prefix + key;
        if constexpr (Record<T>) {
            forEachScalar(v, name + ".", f);
        } else if constexpr (std::is_arithmetic_v<T>) {
            f(name, v);
        } else {
            for (std::size_t i = 0; i < v.size(); ++i)
                f(name + "." + std::to_string(i), v[i]);
        }
    });
}

} // namespace morrigan

#endif // MORRIGAN_COMMON_FIELDS_HH
