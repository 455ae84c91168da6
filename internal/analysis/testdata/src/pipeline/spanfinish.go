// Fixture for the spanfinish analyzer. The local Span/Trace pair mirrors
// repro/internal/obs: the analyzer keys on the *Span result type of
// Start/StartChild, so fixtures need no imports.
package pipeline

type Span struct{ done bool }

func (s *Span) Finish()                 { s.done = true }
func (s *Span) StartChild(string) *Span { return &Span{} }

type Trace struct{}

func (t *Trace) Start(string) *Span { return &Span{} }

func deferred(tr *Trace) {
	sp := tr.Start("compress")
	defer sp.Finish()
}

func neverFinished(tr *Trace) {
	sp := tr.Start("compress") // want `span sp is started but never finished`
	_ = sp
}

func discarded(tr *Trace) {
	tr.Start("compress") // want `result of Start is discarded`
}

func blankAssigned(tr *Trace) {
	_ = tr.Start("compress") // want `assigned to _`
}

func escapingReturn(tr *Trace, fail bool) error {
	sp := tr.Start("compress")
	if fail {
		return errFail // want `return may leave span sp unfinished`
	}
	sp.Finish()
	return nil
}

func finishedOnAllPaths(tr *Trace, fail bool) error {
	sp := tr.Start("compress")
	if fail {
		sp.Finish()
		return errFail
	}
	sp.Finish()
	return nil
}

func reusedVariable(tr *Trace, fail bool) {
	sp := tr.Start("phase1")
	sp.Finish()
	sp = tr.Start("phase2") // want `span sp is started but never finished`
	if fail {
		_ = sp
	}
}

func finishedInClosure(tr *Trace) func() {
	sp := tr.Start("compress")
	return func() { sp.Finish() }
}

func deferredClosure(tr *Trace) {
	sp := tr.Start("compress")
	defer func() { sp.Finish() }()
}

func childSpans(tr *Trace) {
	root := tr.Start("root")
	defer root.Finish()
	child := root.StartChild("child") // want `span child is started but never finished`
	_ = child
}

type errString string

func (e errString) Error() string { return string(e) }

var errFail error = errString("fail")
