/**
 * @file
 * Coroutine plumbing for simulated software.
 *
 * Two coroutine types are provided:
 *
 *  - Task: a top-level, detached coroutine bound to an exec::Context.
 *    Started explicitly by the Cpu; when it runs to completion the Cpu
 *    is notified so it can pick what runs next.
 *
 *  - CoTask<T>: a lazily-started, awaitable coroutine used for nested
 *    calls inside simulated code (`co_await someSubroutine()`), with
 *    symmetric transfer back to the awaiter and exception propagation.
 *
 * All simulated software (kernel handlers, user threads, upcall
 * handlers, applications) is written as coroutines built from these.
 * Both take their frames from the per-thread pool (exec/pool.hh).
 */

#ifndef FUGU_EXEC_TASK_HH
#define FUGU_EXEC_TASK_HH

#include <coroutine>
#include <exception>
#include <utility>

#include "exec/pool.hh"
#include "sim/log.hh"

namespace fugu::exec
{

class Context;

/**
 * Top-level coroutine for a Context. Created suspended; the Cpu
 * resumes it when the context is first dispatched. The Context owns
 * the coroutine frame and destroys it when the context dies.
 */
class Task
{
  public:
    struct promise_type;
    using Handle = std::coroutine_handle<promise_type>;

    struct promise_type : PooledFrame
    {
        /** Back-pointer set by Context when it adopts the task. */
        Context *ctx = nullptr;

        Task
        get_return_object()
        {
            return Task(Handle::from_promise(*this));
        }

        std::suspend_always initial_suspend() noexcept { return {}; }

        struct FinalAwaiter
        {
            bool await_ready() noexcept { return false; }
            std::coroutine_handle<>
                await_suspend(Handle h) noexcept;
            void await_resume() noexcept {}
        };

        FinalAwaiter final_suspend() noexcept { return {}; }
        void return_void() {}

        /**
         * Let the exception fly out of the resume() call: it unwinds
         * through the event loop to the driver, which is the right
         * behaviour for panic/fatal raised inside simulated code.
         */
        void unhandled_exception() { throw; }
    };

    Task() = default;
    explicit Task(Handle h) : handle_(h) {}

    Task(Task &&o) noexcept : handle_(std::exchange(o.handle_, {})) {}

    Task &
    operator=(Task &&o) noexcept
    {
        if (this != &o) {
            destroy();
            handle_ = std::exchange(o.handle_, {});
        }
        return *this;
    }

    Task(const Task &) = delete;
    Task &operator=(const Task &) = delete;

    ~Task() { destroy(); }

    Handle handle() const { return handle_; }
    bool valid() const { return static_cast<bool>(handle_); }

  private:
    void
    destroy()
    {
        if (handle_) {
            handle_.destroy();
            handle_ = {};
        }
    }

    Handle handle_;
};

/**
 * Awaitable nested coroutine returning T. Lazily started: execution
 * begins when awaited, and control returns to the awaiter via
 * symmetric transfer when the child completes.
 */
template <typename T>
class [[nodiscard]] CoTask;

namespace codetail
{

template <typename Derived>
struct CoPromiseBase : PooledFrame
{
    std::coroutine_handle<> continuation;
    std::exception_ptr exception;

    std::suspend_always initial_suspend() noexcept { return {}; }

    struct FinalAwaiter
    {
        bool await_ready() noexcept { return false; }

        std::coroutine_handle<>
        await_suspend(std::coroutine_handle<Derived> h) noexcept
        {
            auto cont = h.promise().continuation;
            return cont ? cont : std::noop_coroutine();
        }

        void await_resume() noexcept {}
    };

    FinalAwaiter final_suspend() noexcept { return {}; }

    void unhandled_exception() { exception = std::current_exception(); }
};

} // namespace codetail

template <typename T>
class [[nodiscard]] CoTask
{
  public:
    struct promise_type : codetail::CoPromiseBase<promise_type>
    {
        alignas(T) unsigned char storage[sizeof(T)];
        bool hasValue = false;

        CoTask
        get_return_object()
        {
            return CoTask(
                std::coroutine_handle<promise_type>::from_promise(*this));
        }

        template <typename U>
        void
        return_value(U &&v)
        {
            new (storage) T(std::forward<U>(v));
            hasValue = true;
        }

        ~promise_type()
        {
            if (hasValue)
                value().~T();
        }

        T &value() { return *reinterpret_cast<T *>(storage); }
    };

    using Handle = std::coroutine_handle<promise_type>;

    explicit CoTask(Handle h) : handle_(h) {}
    CoTask(CoTask &&o) noexcept : handle_(std::exchange(o.handle_, {})) {}
    CoTask(const CoTask &) = delete;
    CoTask &operator=(const CoTask &) = delete;
    CoTask &operator=(CoTask &&) = delete;

    ~CoTask()
    {
        if (handle_)
            handle_.destroy();
    }

    bool await_ready() const noexcept { return false; }

    std::coroutine_handle<>
    await_suspend(std::coroutine_handle<> cont) noexcept
    {
        handle_.promise().continuation = cont;
        return handle_;
    }

    T
    await_resume()
    {
        auto &p = handle_.promise();
        if (p.exception)
            std::rethrow_exception(p.exception);
        fugu_assert(p.hasValue, "CoTask completed without a value");
        return std::move(p.value());
    }

  private:
    Handle handle_;
};

template <>
class [[nodiscard]] CoTask<void>
{
  public:
    struct promise_type : codetail::CoPromiseBase<promise_type>
    {
        CoTask
        get_return_object()
        {
            return CoTask(
                std::coroutine_handle<promise_type>::from_promise(*this));
        }

        void return_void() {}
    };

    using Handle = std::coroutine_handle<promise_type>;

    explicit CoTask(Handle h) : handle_(h) {}
    CoTask(CoTask &&o) noexcept : handle_(std::exchange(o.handle_, {})) {}
    CoTask(const CoTask &) = delete;
    CoTask &operator=(const CoTask &) = delete;
    CoTask &operator=(CoTask &&) = delete;

    ~CoTask()
    {
        if (handle_)
            handle_.destroy();
    }

    bool await_ready() const noexcept { return false; }

    std::coroutine_handle<>
    await_suspend(std::coroutine_handle<> cont) noexcept
    {
        handle_.promise().continuation = cont;
        return handle_;
    }

    void
    await_resume()
    {
        auto &p = handle_.promise();
        if (p.exception)
            std::rethrow_exception(p.exception);
    }

  private:
    Handle handle_;
};

} // namespace fugu::exec

#endif // FUGU_EXEC_TASK_HH
