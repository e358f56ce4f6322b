/**
 * @file
 * Heap integrity verification (debug support).
 *
 * Walks every allocated object and validates the structural
 * invariants the collector and assertion engine rely on:
 *
 *  - every reference slot is null or points to an allocated object;
 *  - no object reads as marked in the heap's mark epoch between
 *    collections;
 *  - per-object assertion state is consistent (owner tags only on
 *    ownees, orphan bits only with dead bits);
 *  - object sizes match their type shape for fixed-shape types.
 *
 * Used by the stress tests and available to embedders chasing
 * memory corruption. O(heap size); never run it from a hot path.
 */

#ifndef GCASSERT_HEAP_VERIFIER_H
#define GCASSERT_HEAP_VERIFIER_H

#include <string>
#include <vector>

#include "heap/object.h"

namespace gcassert {

class Runtime;

/** One verification finding. */
struct VerifierIssue {
    const Object *object;
    std::string what;
};

/**
 * Validates heap structural invariants.
 */
class HeapVerifier {
  public:
    explicit HeapVerifier(Runtime &runtime) : runtime_(runtime) {}

    /**
     * Run all checks.
     * @return Every issue found (empty = healthy heap).
     */
    std::vector<VerifierIssue> verify() const;

    /**
     * Convenience for tests: panics with the first issue's
     * description if the heap is not healthy.
     */
    void verifyOrPanic() const;

  private:
    Runtime &runtime_;
};

} // namespace gcassert

#endif // GCASSERT_HEAP_VERIFIER_H
