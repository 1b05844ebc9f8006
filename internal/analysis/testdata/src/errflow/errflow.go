package errflow

import (
	"errors"
	"fmt"
	"strings"
)

func mk() error          { return errors.New("x") }
func two() (int, error)  { return 0, nil }
func pair() (int, error) { return 1, nil }

// ---- syntactic: blank assignment and dropped results ------------------

func blank() {
	_ = mk() // want `error result assigned to _`
}

func blankTuple() int {
	v, _ := two() // want `error result assigned to _`
	return v
}

func dropped() {
	mk() // want `call drops its error result`
}

func droppedGo() {
	go mk() // want `go call drops its error result`
}

func droppedDefer() {
	defer mk() // want `defer call drops its error result`
}

// fmt's print family and in-memory sinks never return a live error.
func exemptCallees(sb *strings.Builder) {
	fmt.Println("ok")
	sb.WriteString("ok")
}

// ---- flow-sensitive: overwrite and abandonment ------------------------

func overwrite() error {
	err := mk()
	err = mk() // want `overwrites the error err assigned at line \d+`
	return err
}

func checkedOK() error {
	err := mk()
	if err != nil {
		return err
	}
	return nil
}

func reuseOK() (int, error) {
	v, err := two()
	if err != nil {
		return 0, err
	}
	w, err := two()
	if err != nil {
		return 0, err
	}
	return v + w, nil
}

func abandoned(b bool) error {
	err := mk() // want `error assigned to err is never used on some path`
	if b {
		return nil
	}
	return err
}

// Loop retention: self-overwrite across iterations keeps the last
// error on purpose; the return reads it.
func retainLastOK(xs []int) error {
	var err error
	for _, x := range xs {
		if x < 0 {
			err = mk()
		}
	}
	return err
}

// Captured or aliased variables leave the intra-procedural domain.
func capturedOK() error {
	var err error
	f := func() { err = mk() }
	f()
	return err
}

func aliasedOK() error {
	err := mk()
	p := &err
	_ = p
	return nil
}

// Named results are used by the return by construction.
func namedOK() (err error) {
	err = mk()
	return
}

// err = nil resets the state; nothing outstanding afterwards.
func nilResetOK() error {
	err := mk()
	if err != nil {
		err = nil
	}
	return err
}

// A use in a deferred call's arguments counts at the defer statement,
// where the arguments are evaluated.
func handle(error) {}

func deferredUseOK() {
	err := mk()
	defer handle(err)
}

func g() (int, error) { return 1, nil }

// A tagless switch tests its cases in source order, so the err test
// runs on every path that reaches the later cases.
func taglessSwitchOK() int {
	f, err := g()
	switch {
	case err != nil:
		return -1
	case f == 1:
		return 1
	}
	return 0
}
