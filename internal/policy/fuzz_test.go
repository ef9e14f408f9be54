package policy

import (
	"testing"
	"time"
)

// FuzzScript parses and runs arbitrary source the way the reincarnation
// server runs a policy script — host commands bound (stubbed here), sleep
// a no-op — and holds that every input ends in a status or an error,
// within the interpreter's step budget, and never panics: recovery
// policies are operator-editable files, so a broken one must degrade to
// an error RS can log.
func FuzzScript(f *testing.F) {
	f.Add(genericScript)
	for _, tc := range malformedScripts {
		f.Add(tc.src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		calls := 0
		host := func(argv []string, stdin string) (string, int) {
			calls++
			return "", 0
		}
		in := NewInterp(
			WithSleep(func(time.Duration) { calls++ }),
			WithCommand("service", host),
			WithCommand("mail", host),
			WithCommand("log", host),
			WithCommand("reboot", host),
			WithArgs("eth.rtl8139", "1", "3", "-a", "root"),
		)
		_, _ = in.RunSource(src)
		if calls > stepLimit {
			t.Fatalf("%d host calls exceed the %d-step budget", calls, stepLimit)
		}
	})
}
