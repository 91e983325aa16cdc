// Umbrella header for the DRCF core library.
#pragma once

#include "drcf/context.hpp"
#include "drcf/context_cache.hpp"
#include "drcf/drcf.hpp"
#include "drcf/prefetch_policy.hpp"
#include "drcf/slot_table.hpp"
#include "drcf/technology.hpp"
