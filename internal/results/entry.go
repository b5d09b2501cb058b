// Package results owns the stored form of a finished simulation cell:
// the canonical result bytes, the checksummed psbc1 frame around them,
// and a directory of <fingerprint>.psbc entries keyed by
// runner.Job.Fingerprint. psbtables -cache-dir and psbserved -cache-dir
// read and write the same entries through it, so one directory resumes
// a psbtables run and warms a psbserved node.
package results

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"

	"repro/internal/sim"
)

// Encode renders a simulation result as canonical JSON: the exact
// bytes psbsim -json prints and psbserved returns, so stored,
// dedup-served and freshly simulated results are byte-identical and
// diffable across the CLI/server boundary.
func Encode(r sim.Result) []byte {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		// sim.Result is plain data; MarshalIndent cannot fail on it.
		panic(err)
	}
	return append(b, '\n')
}

// Entries are framed so corruption is detected on read, not served: a
// magic line, the SHA-256 of the payload, then the payload — the
// canonical Encode bytes. A torn write (truncation), a bit flip
// anywhere, or an empty file all fail the frame or the checksum and
// surface as ErrCorrupt.
const (
	entryMagic = "psbc1\n"
	// entryHeaderLen is the fixed frame prefix: magic, 64 hex checksum
	// chars, newline.
	entryHeaderLen = len(entryMagic) + sha256.Size*2 + 1
)

// ErrCorrupt marks an entry that failed frame or checksum validation
// (as opposed to an I/O error reaching the bytes at all).
var ErrCorrupt = errors.New("results: corrupt entry")

// EncodeEntry frames a result as a stored entry.
func EncodeEntry(res sim.Result) []byte {
	payload := Encode(res)
	sum := sha256.Sum256(payload)
	buf := make([]byte, 0, entryHeaderLen+len(payload))
	buf = append(buf, entryMagic...)
	buf = append(buf, hex.EncodeToString(sum[:])...)
	buf = append(buf, '\n')
	return append(buf, payload...)
}

// DecodeEntry validates the frame and checksum and unmarshals the
// payload. Any validation failure wraps ErrCorrupt; the function never
// panics, whatever bytes arrive (FuzzDecodeDiskEntry).
func DecodeEntry(b []byte) (sim.Result, error) {
	if len(b) < entryHeaderLen {
		return sim.Result{}, fmt.Errorf("%w: %d bytes, want at least %d (truncated or empty)",
			ErrCorrupt, len(b), entryHeaderLen)
	}
	if !bytes.HasPrefix(b, []byte(entryMagic)) {
		return sim.Result{}, fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	sumHex := b[len(entryMagic) : len(entryMagic)+sha256.Size*2]
	if b[entryHeaderLen-1] != '\n' {
		return sim.Result{}, fmt.Errorf("%w: malformed header", ErrCorrupt)
	}
	want, err := hex.DecodeString(string(sumHex))
	if err != nil {
		return sim.Result{}, fmt.Errorf("%w: malformed checksum", ErrCorrupt)
	}
	payload := b[entryHeaderLen:]
	if sum := sha256.Sum256(payload); !bytes.Equal(sum[:], want) {
		return sim.Result{}, fmt.Errorf("%w: checksum mismatch", ErrCorrupt)
	}
	var res sim.Result
	if err := json.Unmarshal(payload, &res); err != nil {
		// A matching checksum over non-Result JSON means the file was
		// overwritten wholesale, not flipped; still corruption.
		return sim.Result{}, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	return res, nil
}
