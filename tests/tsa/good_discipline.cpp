/**
 * @file
 * Thread-safety positive fixture: every locking idiom the runtime uses,
 * written correctly — MUST compile cleanly with the PPEP_THREAD_SAFETY
 * flags (-Werror=thread-safety -Werror=thread-safety-beta). If this
 * fixture fails, the wrappers themselves (util/sync.hpp) regressed, not
 * a caller.
 */

#include "ppep/util/sync.hpp"

namespace {

ppep::util::Role serial_role;

/** The arbiter idiom: callable only from the barrier-serial section. */
void
serialOnly() PPEP_REQUIRES(serial_role)
{
}

/** The registry idiom: guarded state, scoped locks, an EXCLUDES public
 *  surface, and a REQUIRES helper. */
class Registry
{
  public:
    void bump() PPEP_EXCLUDES(mu_)
    {
        ppep::util::MutexLock g(mu_);
        bumpLocked();
    }

    int count() const PPEP_EXCLUDES(mu_)
    {
        ppep::util::MutexLock g(mu_);
        return n_;
    }

    /** Unguarded work runs outside the lock's scope. */
    void bumpThenSerial() PPEP_EXCLUDES(mu_)
    {
        bump();
        ppep::util::RoleGuard serial(serial_role);
        serialOnly();
    }

  private:
    void bumpLocked() PPEP_REQUIRES(mu_) { ++n_; }

    mutable ppep::util::Mutex mu_;
    int n_ PPEP_GUARDED_BY(mu_) = 0;
};

} // namespace

int
main()
{
    Registry r;
    r.bump();
    r.bumpThenSerial();
    return r.count() == 2 ? 0 : 1;
}
