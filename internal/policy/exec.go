package policy

import (
	"errors"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Command is a host-provided command (e.g. `service`, `mail`, `reboot`
// bound by the reincarnation server). It receives the expanded argv
// (argv[0] is the command name) and the piped-in stdin; it returns its
// stdout and exit status.
type Command func(argv []string, stdin string) (stdout string, status int)

// Interp executes parsed policy scripts. The zero value is not usable;
// call NewInterp.
type Interp struct {
	vars     map[string]string
	args     []string // positional parameters $1..
	status   int      // $?
	commands map[string]Command
	sleep    func(time.Duration)
	stdout   io.Writer
	limit    int    // remaining execution steps (runaway guard)
	docsRef  []word // heredoc bodies of the script being run
	optind   int    // getopts cursor (1-based position in args)
	trace    Trace  // step-level hook, nil when tracing is off
}

// Trace is the step-level trace hook: it is called after every executed
// simple command with the fully-expanded argv and the command's exit
// status (decision tracing uses it to record a script's "why" trail).
type Trace func(argv []string, status int)

// Option configures an Interp.
type Option func(*Interp)

// WithCommand binds a host command.
func WithCommand(name string, fn Command) Option {
	return func(in *Interp) { in.commands[name] = fn }
}

// WithSleep binds the sleep builtin's clock (the reincarnation server
// binds virtual time). Default: sleeping is a no-op.
func WithSleep(fn func(time.Duration)) Option {
	return func(in *Interp) { in.sleep = fn }
}

// WithStdout directs unpiped command output.
func WithStdout(w io.Writer) Option {
	return func(in *Interp) { in.stdout = w }
}

// WithArgs sets the positional parameters.
func WithArgs(args ...string) Option {
	return func(in *Interp) { in.args = append([]string(nil), args...) }
}

// WithVar presets a variable.
func WithVar(name, value string) Option {
	return func(in *Interp) { in.vars[name] = value }
}

// WithTrace installs the step-level trace hook.
func WithTrace(fn Trace) Option {
	return func(in *Interp) { in.trace = fn }
}

// VarState renders the interpreter's shell variables as a canonical
// space-separated "name=value" list in name order, so trace hooks can
// snapshot the arith/variable state deterministically.
func (in *Interp) VarState() string {
	if len(in.vars) == 0 {
		return ""
	}
	names := make([]string, 0, len(in.vars))
	for n := range in.vars {
		names = append(names, n)
	}
	sort.Strings(names)
	var b strings.Builder
	for i, n := range names {
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(n)
		b.WriteByte('=')
		b.WriteString(in.vars[n])
	}
	return b.String()
}

// stepLimit bounds total commands executed per run; a policy script that
// exceeds it is defective itself.
const stepLimit = 100_000

// valueLimit bounds what a script can grow from step to step — a
// variable's value, a pipe's buffered output — so a runaway loop such as
// x=$x$x fails with an error long before it exhausts host memory.
const valueLimit = 64 << 10

func checkValue(what string, n int) error {
	if n > valueLimit {
		return fmt.Errorf("policy: %s exceeds %d bytes", what, valueLimit)
	}
	return nil
}

// NewInterp creates an interpreter.
func NewInterp(opts ...Option) *Interp {
	in := &Interp{
		vars:     make(map[string]string),
		commands: make(map[string]Command),
		sleep:    func(time.Duration) {},
		stdout:   io.Discard,
		limit:    stepLimit,
	}
	for _, o := range opts {
		o(in)
	}
	return in
}

// exitError unwinds the script on `exit N`.
type exitError struct{ status int }

func (e *exitError) Error() string { return fmt.Sprintf("exit %d", e.status) }

// Run executes a parsed script and returns its exit status.
func (in *Interp) Run(s *Script) (int, error) {
	in.docsRef = s.docs
	err := in.execList(s.root)
	var ex *exitError
	if errors.As(err, &ex) {
		in.status = ex.status
		return ex.status, nil
	}
	if err != nil {
		return 1, err
	}
	return in.status, nil
}

// RunSource parses and executes src.
func (in *Interp) RunSource(src string) (int, error) {
	s, err := Parse(src)
	if err != nil {
		return 1, err
	}
	return in.Run(s)
}

// Var returns the value of a variable after a run (tests, host queries).
func (in *Interp) Var(name string) string { return in.vars[name] }

func (in *Interp) step() error {
	in.limit--
	if in.limit <= 0 {
		return fmt.Errorf("policy: script exceeded %d steps", stepLimit)
	}
	return nil
}

func (in *Interp) lookupVar(name string) string {
	switch name {
	case "?":
		return strconv.Itoa(in.status)
	case "#":
		return strconv.Itoa(len(in.args))
	case "@", "*":
		return strings.Join(in.args, " ")
	}
	if len(name) == 1 && name[0] >= '0' && name[0] <= '9' {
		idx := int(name[0] - '0')
		if idx == 0 {
			return "policy" // $0
		}
		if idx <= len(in.args) {
			return in.args[idx-1]
		}
		return ""
	}
	return in.vars[name]
}

// expandWord expands a word into fields (IFS splitting applies to unquoted
// expansions).
func (in *Interp) expandWord(w word) ([]string, error) {
	type frag struct {
		s      string
		quoted bool
	}
	var frags []frag
	for _, p := range w {
		switch p.kind {
		case partLit:
			frags = append(frags, frag{p.s, p.quoted})
		case partVar:
			frags = append(frags, frag{in.lookupVar(p.s), p.quoted})
		case partArith:
			v, err := in.evalArith(p.s)
			if err != nil {
				return nil, err
			}
			frags = append(frags, frag{strconv.FormatInt(v, 10), p.quoted})
		}
	}
	// Assemble fields: quoted fragments never split; unquoted fragments
	// split on whitespace.
	var fields []string
	cur := ""
	started := false
	flush := func() {
		if started {
			fields = append(fields, cur)
			cur = ""
			started = false
		}
	}
	for _, f := range frags {
		if f.quoted {
			cur += f.s
			started = true
			continue
		}
		parts := strings.Fields(f.s)
		if len(parts) == 0 {
			if f.s == "" {
				continue
			}
			// whitespace-only unquoted expansion: separator
			flush()
			continue
		}
		lead := f.s[0] == ' ' || f.s[0] == '\t' || f.s[0] == '\n'
		trail := f.s[len(f.s)-1] == ' ' || f.s[len(f.s)-1] == '\t' || f.s[len(f.s)-1] == '\n'
		for i, pt := range parts {
			if i == 0 && !lead {
				cur += pt
				started = true
			} else {
				flush()
				cur = pt
				started = true
			}
		}
		if trail {
			flush()
		}
	}
	flush()
	return fields, nil
}

// expandOne expands a word into exactly one string (no field splitting) —
// for assignments and case subjects.
func (in *Interp) expandOne(w word) (string, error) {
	var b strings.Builder
	for _, p := range w {
		switch p.kind {
		case partLit:
			b.WriteString(p.s)
		case partVar:
			b.WriteString(in.lookupVar(p.s))
		case partArith:
			v, err := in.evalArith(p.s)
			if err != nil {
				return "", err
			}
			b.WriteString(strconv.FormatInt(v, 10))
		}
	}
	return b.String(), nil
}

func (in *Interp) execList(l *listNode) error {
	for _, item := range l.items {
		if err := in.execNode(item, "", nil); err != nil {
			return err
		}
	}
	return nil
}

// execNode executes a node. stdin is the piped input; if out is non-nil
// the node's output is collected there instead of going to in.stdout.
func (in *Interp) execNode(n node, stdin string, out *strings.Builder) error {
	if err := in.step(); err != nil {
		return err
	}
	switch n := n.(type) {
	case *listNode:
		return in.execList(n)
	case *andOrNode:
		if err := in.execNode(n.first, stdin, out); err != nil {
			return err
		}
		for _, link := range n.rest {
			if (link.op == "&&" && in.status != 0) || (link.op == "||" && in.status == 0) {
				continue
			}
			if err := in.execNode(link.next, stdin, out); err != nil {
				return err
			}
		}
		return nil
	case *pipeNode:
		data := stdin
		for i, cmd := range n.cmds {
			var buf strings.Builder
			sink := &buf
			if i == len(n.cmds)-1 {
				sink = out // may be nil -> stdout
			}
			if err := in.execNode(cmd, data, sink); err != nil {
				return err
			}
			if i < len(n.cmds)-1 {
				data = buf.String()
			}
		}
		return nil
	case *simpleNode:
		return in.execSimple(n, stdin, out)
	case *ifNode:
		for _, arm := range n.arms {
			if err := in.execList(arm.cond); err != nil {
				return err
			}
			if in.status == 0 {
				return in.execList(arm.body)
			}
		}
		if n.elseBody != nil {
			return in.execList(n.elseBody)
		}
		in.status = 0
		return nil
	case *whileNode:
		for {
			// Each iteration is a step of its own: an empty condition
			// and body (while ;do;done) would otherwise spin forever.
			if err := in.step(); err != nil {
				return err
			}
			if err := in.execList(n.cond); err != nil {
				return err
			}
			if in.status != 0 {
				in.status = 0
				return nil
			}
			if err := in.execList(n.body); err != nil {
				return err
			}
		}
	case *forNode:
		var items []string
		for _, w := range n.words {
			fields, err := in.expandWord(w)
			if err != nil {
				return err
			}
			items = append(items, fields...)
		}
		for _, item := range items {
			in.vars[n.name] = item
			if err := in.execList(n.body); err != nil {
				return err
			}
		}
		in.status = 0
		return nil
	case *caseNode:
		subj, err := in.expandOne(n.subject)
		if err != nil {
			return err
		}
		for _, arm := range n.arms {
			for _, pw := range arm.patterns {
				pat, err := in.expandOne(pw)
				if err != nil {
					return err
				}
				if globMatch(pat, subj) {
					return in.execList(arm.body)
				}
			}
		}
		in.status = 0
		return nil
	}
	return fmt.Errorf("policy: unknown node %T", n)
}

func (in *Interp) execSimple(n *simpleNode, stdin string, out *strings.Builder) error {
	// Assignments.
	for _, a := range n.assigns {
		val, err := in.expandOne(a.value)
		if err == nil {
			err = checkValue("value of "+a.name, len(val))
		}
		if err != nil {
			return err
		}
		in.vars[a.name] = val
	}
	if len(n.words) == 0 {
		in.status = 0
		return nil
	}
	var argv []string
	for _, w := range n.words {
		fields, err := in.expandWord(w)
		if err != nil {
			return err
		}
		argv = append(argv, fields...)
	}
	if len(argv) == 0 {
		in.status = 0
		return nil
	}
	if n.heredoc >= 0 {
		doc, err := in.expandOne(in.docsRef[n.heredoc])
		if err != nil {
			return err
		}
		stdin = doc
	}
	stdout, status, err := in.invoke(argv, stdin)
	if err != nil {
		return err
	}
	in.status = status
	if in.trace != nil {
		in.trace(argv, status)
	}
	if stdout != "" {
		if out != nil {
			out.WriteString(stdout)
			if err := checkValue("piped output", out.Len()); err != nil {
				return err
			}
		} else {
			io.WriteString(in.stdout, stdout)
		}
	}
	return nil
}

// globMatch implements shell pattern matching with * and ?.
func globMatch(pat, s string) bool {
	// Dynamic programming over pattern/string positions.
	pi, si := 0, 0
	star, starSi := -1, 0
	for si < len(s) {
		switch {
		case pi < len(pat) && (pat[pi] == '?' || pat[pi] == s[si]):
			pi++
			si++
		case pi < len(pat) && pat[pi] == '*':
			star, starSi = pi, si
			pi++
		case star >= 0:
			starSi++
			si = starSi
			pi = star + 1
		default:
			return false
		}
	}
	for pi < len(pat) && pat[pi] == '*' {
		pi++
	}
	return pi == len(pat)
}
