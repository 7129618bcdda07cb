package fsyncack_b

import "fsyncack_a"

func good(w *fsyncack_a.WAL, b []byte) error {
	return w.AppendGood(b)
}

func badBare(w *fsyncack_a.WAL, b []byte) {
	w.AppendGood(b) // want `discards the error`
}

func badBlank(w *fsyncack_a.WAL, b []byte) {
	_ = w.AppendGood(b) // want `discards the error`
}

func badDefer(w *fsyncack_a.WAL) {
	defer w.Flush() // want `discards the error`
}
