package policy

import (
	"strings"
	"testing"
)

// runNoPanic executes src and converts any interpreter panic into a test
// failure carrying the offending script. Recovery policies come from
// operator-editable files (paper §5.2): a malformed script must degrade
// to an error the reincarnation server can log, never take down the host.
func runNoPanic(t *testing.T, src string, opts ...Option) (status int, err error) {
	t.Helper()
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("script %q panicked: %v", src, r)
		}
	}()
	in := NewInterp(opts...)
	return in.RunSource(src)
}

// malformedScripts are damaged policy scripts: every one must fail (an
// error or a nonzero status), never panic. FuzzScript seeds from them.
var malformedScripts = []struct {
	name string
	src  string
}{
	// Unknown verbs: not builtins and not host-bound commands.
	{"unknown-verb", `restrt "$1"`},
	{"unknown-verb-in-if", `if true; then frobnicate; fi`},
	{"unknown-verb-in-pipe", `echo x | mangle`},

	// Unterminated strings and expansions.
	{"unterminated-double-quote", `service restart "eth`},
	{"unterminated-single-quote", `mail 'driver died`},
	{"unterminated-brace-var", `echo ${label`},
	{"unterminated-arith", `t=$((t * 2`},
	{"unterminated-heredoc", "mail root << EOF\nsubject: down\n"},
	{"dangling-backslash", `echo oops\`},

	// Backoff arithmetic gone wrong: the Fig. 2 pattern with a shift
	// or operand that overflows must error out of the run.
	{"backoff-shift-overflow", `
count=70
sleep $((1 << count))
`},
	{"backoff-negative-shift", `sleep $((1 << -1))`},
	{"backoff-huge-literal", `sleep $((99999999999999999999 * 2))`},
	{"backoff-divide-by-zero", `sleep $((60 / (count - count)))`},
	{"backoff-bad-variable", `
period=soon
sleep $((period * 2))
`},
	{"sleep-overflowing-duration", `sleep 9e999`},
	{"sleep-negative", `sleep -5`},

	// Structural damage around the same constructs.
	{"if-without-fi", `if test $count -gt 3; then mail root`},
	{"while-without-done", `while true; do service restart net`},
	{"case-pattern-junk", `case $1 in |) echo x;; esac`},
	{"background-job", `service restart net &`},
	{"shift-bad-count", `shift banana`},

	// Runaway growth: must hit the value limit, not exhaust host memory.
	{"runaway-doubling", "x=a\nwhile :; do x=$x$x; done"},
	{"runaway-pipe", "while :; do echo runaway; done | cat"},
}

func TestMalformedScriptsErrorNeverPanic(t *testing.T) {
	for _, tc := range malformedScripts {
		t.Run(tc.name, func(t *testing.T) {
			status, err := runNoPanic(t, tc.src)
			if err == nil && status == 0 {
				t.Errorf("script %q: no error and status 0, want failure", tc.src)
			}
		})
	}
}

// TestMalformedBackoffScriptUnderHost runs a damaged variant of the
// paper's Fig. 2 generic script with host commands bound, the way RS
// runs it: the overflow must surface as an error, not kill the host.
func TestMalformedBackoffScriptUnderHost(t *testing.T) {
	var restarts int
	_, err := runNoPanic(t, `
repetition=$1
t=1
while test $repetition -gt 0; do
	t=$((t << repetition))
	sleep $t
	repetition=$((repetition - 1))
done
service restart
`,
		WithArgs("70"), // shift count beyond 63 on the first iteration
		WithCommand("service", func(argv []string, stdin string) (string, int) {
			restarts++
			return "", 0
		}),
	)
	if err == nil || !strings.Contains(err.Error(), "shift count") {
		t.Fatalf("err = %v, want shift-count overflow", err)
	}
	if restarts != 0 {
		t.Fatalf("restart ran %d times after broken backoff", restarts)
	}
}

// TestParseNeverPanicsOnMangledSources sweeps byte-level mutations of a
// valid policy script through the parser; every result must be a clean
// parse or a clean error.
func TestParseNeverPanicsOnMangledSources(t *testing.T) {
	base := `
repetition=$1
if test $repetition -le 3; then
	sleep $((1 << repetition))
	service restart
else
	mail root "driver keeps crashing"
fi
`
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("parser panicked: %v", r)
		}
	}()
	for i := 0; i < len(base); i++ {
		for _, b := range []byte{'"', '\'', '$', '(', ')', '|', '&', '<', '{', 0} {
			mangled := base[:i] + string(b) + base[i+1:]
			_, _ = Parse(mangled) // must not panic; error is fine
		}
		_, _ = Parse(base[:i]) // truncations too
	}
}
