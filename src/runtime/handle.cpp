#include "runtime/handle.h"

#include "runtime/runtime.h"
#include "support/logging.h"

namespace gcassert {

Handle::Handle(Runtime &runtime, Object *obj, const char *name)
    : runtime_(&runtime)
{
    runtime_->addRoot(node_, obj, name);
}

Handle::Handle(const Handle &other) : runtime_(other.runtime_)
{
    if (runtime_)
        runtime_->addRoot(node_, other.node_.get(), other.node_.name());
}

Handle &
Handle::operator=(const Handle &other)
{
    if (this == &other)
        return *this;
    reset();
    runtime_ = other.runtime_;
    if (runtime_)
        runtime_->addRoot(node_, other.node_.get(), other.node_.name());
    return *this;
}

Handle::Handle(Handle &&other) noexcept : runtime_(other.runtime_)
{
    if (runtime_) {
        // Root the new node before releasing the old one: another
        // mutator's collection may run between the two locked steps,
        // and must never find the object unrooted.
        runtime_->addRoot(node_, other.node_.get(), other.node_.name());
        other.reset();
    }
}

Handle &
Handle::operator=(Handle &&other) noexcept
{
    if (this == &other)
        return *this;
    reset();
    runtime_ = other.runtime_;
    if (runtime_) {
        // Same order as the move constructor, for the same reason.
        runtime_->addRoot(node_, other.node_.get(), other.node_.name());
        other.reset();
    }
    return *this;
}

Handle::~Handle()
{
    reset();
}

void
Handle::set(Object *obj)
{
    if (!runtime_)
        fatal("Handle::set on a null handle");
    node_.set(obj);
}

void
Handle::reset()
{
    if (runtime_) {
        runtime_->removeRoot(node_);
        runtime_ = nullptr;
    }
    node_.set(nullptr);
}

} // namespace gcassert
