package queue

import (
	"errors"
	"reflect"
	"testing"
)

// FuzzQueueLine throws arbitrary file images at the queue-journal
// decoder — the claim/heartbeat/done line codec plus the replay state
// machine. Decoding must never panic: an image is either decoded
// (possibly dropping a torn trailing line) into a state whose shape
// matches its header, or rejected with the typed ErrQueue. The image is
// also fed to the incremental replay in chunks, as a journal grows
// between Loads; cuts holds the chunk lengths (each byte plus one, the
// rest of the image after them). The chunked replay must end in the same
// state, or the same rejection, as decoding the whole image at once.
func FuzzQueueLine(f *testing.F) {
	cuts := []byte{0, 7, 40, 3}
	hdr := `{"version":2,"config_digest":"ab","rates":[0.1,0.2]}` + "\n"
	f.Add([]byte(""), cuts)
	f.Add([]byte(hdr), cuts)
	f.Add([]byte(hdr+`{"t":"claim","index":0,"w":"w1","at_ms":5,"lease_ms":100}`+"\n"), cuts)
	f.Add([]byte(hdr+
		`{"t":"claim","index":1,"w":"w1","at_ms":5,"lease_ms":100}`+"\n"+
		`{"t":"beat","index":1,"w":"w1","at_ms":50,"lease_ms":100}`+"\n"+
		`{"t":"done","index":1,"w":"w1","at_ms":90,"point":{"index":1},"final":true}`+"\n"), cuts)
	f.Add([]byte(hdr+`{"t":"claim","index":0,"w":"w1","at_ms":5,"lease_ms":100}`+"\n"+
		`{"t":"drop","index":0,"w":"w1"}`+"\n"+`{"t":"reset","index":0}`+"\n"), cuts)
	f.Add([]byte(hdr+`{"t":"claim","index":0` /* torn tail */), cuts)
	f.Add([]byte(hdr+`{"t":"bogus","index":0}`+"\n"+`{"t":"claim","index":0,"w":"x","at_ms":1,"lease_ms":1}`+"\n"), cuts)
	f.Add([]byte(`{"version":1,"config_digest":"ab","rates":[0.1]}`+"\n"), cuts)
	f.Add([]byte("not a header\nmore\n"), cuts)
	f.Add([]byte("\n\n"), cuts)
	// A schema-invalid line is a tolerated tail until a line follows it;
	// the first chunk ends exactly on its newline.
	bad := `{"t":"claim","index":5,"w":"x","at_ms":1,"lease_ms":1}` + "\n"
	f.Add([]byte(hdr+bad+`{"t":"claim"`), []byte{byte(len(hdr) + len(bad) - 1)})

	f.Fuzz(func(t *testing.T, data, cuts []byte) {
		st, err := DecodeState(data)
		chunked, cerr := replayChunks(data, cuts)
		if (err == nil) != (cerr == nil) || (err != nil && err.Error() != cerr.Error()) {
			t.Fatalf("chunked replay error %v, whole-image error %v", cerr, err)
		}
		if err == nil && !reflect.DeepEqual(chunked, st) {
			t.Fatalf("chunked replay state %+v, whole-image state %+v", chunked, st)
		}
		if err != nil {
			if !errors.Is(err, ErrQueue) {
				t.Fatalf("rejection lacks ErrQueue: %v", err)
			}
			return
		}
		if len(st.Points) != len(st.Header.Rates) {
			t.Fatalf("state has %d points for %d rates", len(st.Points), len(st.Header.Rates))
		}
		for i, p := range st.Points {
			switch p.Status {
			case Pending, Claimed, Done:
			default:
				t.Fatalf("point %d has invalid status %d", i, int(p.Status))
			}
			if p.Status == Done && len(p.Payload) == 0 {
				t.Fatalf("point %d done without payload", i)
			}
			if p.Status == Claimed && p.Holder == "" {
				t.Fatalf("point %d claimed without holder", i)
			}
		}
	})
}

// replayChunks feeds data to one replayer a chunk at a time, each feed
// seeing the bytes from the replayer's offset to the chunk's end, and
// returns the state DecodeState would.
func replayChunks(data, cuts []byte) (*State, error) {
	var rp replayer
	off, end := 0, 0
	for i := 0; i <= len(cuts); i++ {
		if i < len(cuts) {
			end = min(end+int(cuts[i])+1, len(data))
		} else {
			end = len(data)
		}
		used, err := rp.feed(data[off:end])
		off += used
		if err != nil {
			return nil, err
		}
	}
	if rp.st == nil {
		return nil, errNoHeader
	}
	return rp.st, nil
}
