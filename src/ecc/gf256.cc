#include "src/ecc/gf256.hh"

#include "src/common/logging.hh"

namespace sam {

using gf256_detail::kTables;

GF256::Elem
GF256::div(Elem a, Elem b)
{
    sam_assert(b != 0, "GF256 division by zero");
    if (a == 0)
        return 0;
    return kTables.exp[kTables.log[a] + 255 - kTables.log[b]];
}

GF256::Elem
GF256::inv(Elem a)
{
    sam_assert(a != 0, "GF256 inverse of zero");
    return kTables.exp[255 - kTables.log[a]];
}

GF256::Elem
GF256::pow(Elem a, unsigned n)
{
    if (n == 0)
        return 1;
    if (a == 0)
        return 0;
    return kTables.exp[(static_cast<unsigned long>(kTables.log[a]) * n) %
                       255];
}

unsigned
GF256::log(Elem a)
{
    sam_assert(a != 0, "GF256 log of zero");
    return kTables.log[a];
}

} // namespace sam
