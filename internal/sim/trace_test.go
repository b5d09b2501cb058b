package sim

import (
	"strings"
	"testing"
)

// TestParseTraceFlags covers every -trace / -trace-dir combination the
// command-line tools accept or reject.
func TestParseTraceFlags(t *testing.T) {
	for _, tc := range []struct {
		mode, dir string
		want      TraceMode
		err       string // substring of the expected error; "" = accepted
	}{
		{"memory", "", TraceMemory, ""},
		{"memory", "traces", TraceDisk, ""}, // a directory implies disk
		{"disk", "traces", TraceDisk, ""},
		{"off", "", TraceOff, ""},
		{"off", "traces", TraceOff, "-trace-dir would be ignored"},
		{"disk", "", TraceOff, "needs -trace-dir"},
		{"tape", "", TraceOff, "unknown trace mode"},
		{"tape", "traces", TraceOff, "unknown trace mode"},
	} {
		got, err := ParseTraceFlags(tc.mode, tc.dir)
		switch {
		case tc.err == "" && err != nil:
			t.Errorf("-trace %q -trace-dir %q: %v", tc.mode, tc.dir, err)
		case tc.err != "" && (err == nil || !strings.Contains(err.Error(), tc.err)):
			t.Errorf("-trace %q -trace-dir %q: err %v, want one containing %q", tc.mode, tc.dir, err, tc.err)
		case err == nil && got != tc.want:
			t.Errorf("-trace %q -trace-dir %q: mode %s, want %s", tc.mode, tc.dir, got, tc.want)
		}
	}
}
