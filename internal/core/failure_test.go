package core

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"medsplit/internal/nn"
	"medsplit/internal/tensor"
	"medsplit/internal/transport"
	"medsplit/internal/transport/testutil"
	"medsplit/internal/wire"
)

// serveOne starts a 1-platform server on a pipe and returns the client
// end plus the server's error channel, letting tests drive the protocol
// by hand with hostile inputs.
func serveOne(t *testing.T, mut func(*ServerConfig)) (transport.Conn, chan error) {
	t.Helper()
	train, _ := testData(t, 2, 16, 4, 31)
	flat := flatten(train)
	_, back := buildSplitMLP(t, 131, flat.X.Dim(1), 2)
	srv := defaultServer(t, back, 1, 2, mut)
	sConn, pConn := transport.Pipe()
	errCh := make(chan error, 1)
	go func() {
		errCh <- srv.Serve([]transport.Conn{sConn})
		sConn.Close()
	}()
	return pConn, errCh
}

func hello(rounds int) *wire.Message {
	meta := fmt.Sprintf("v=1;rounds=%d;labelshare=false;sync=0;eval=0;codec=raw;evaluator=false", rounds)
	return &wire.Message{Type: wire.MsgHello, Platform: 0, Payload: wire.EncodeText(meta)}
}

func TestServerRejectsWrongFirstMessage(t *testing.T) {
	conn, errCh := serveOne(t, nil)
	defer conn.Close()
	if err := conn.Send(&wire.Message{Type: wire.MsgAck}); err != nil {
		t.Fatal(err)
	}
	err := <-errCh
	if !errors.Is(err, ErrProtocol) {
		t.Fatalf("err = %v, want ErrProtocol", err)
	}
}

func TestServerRejectsWrongPlatformID(t *testing.T) {
	conn, errCh := serveOne(t, nil)
	defer conn.Close()
	m := hello(2)
	m.Platform = 5
	if err := conn.Send(m); err != nil {
		t.Fatal(err)
	}
	if err := <-errCh; !errors.Is(err, ErrProtocol) {
		t.Fatalf("err = %v, want ErrProtocol", err)
	}
}

func TestServerRejectsMalformedActivations(t *testing.T) {
	conn, errCh := serveOne(t, nil)
	defer conn.Close()
	if err := conn.Send(hello(2)); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Recv(); err != nil { // hello-ack
		t.Fatal(err)
	}
	// Garbage payload in a validly framed message.
	if err := conn.Send(&wire.Message{
		Type:    wire.MsgActivations,
		Round:   0,
		Payload: []byte{0xde, 0xad, 0xbe, 0xef},
	}); err != nil {
		t.Fatal(err)
	}
	if err := <-errCh; !errors.Is(err, ErrProtocol) {
		t.Fatalf("err = %v, want ErrProtocol", err)
	}
}

func TestServerRejectsWrongRoundNumber(t *testing.T) {
	conn, errCh := serveOne(t, nil)
	defer conn.Close()
	if err := conn.Send(hello(2)); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Recv(); err != nil {
		t.Fatal(err)
	}
	a := tensor.New(4, 32)
	if err := conn.Send(&wire.Message{
		Type:    wire.MsgActivations,
		Round:   7, // server expects round 0
		Payload: wire.EncodeTensors(a),
	}); err != nil {
		t.Fatal(err)
	}
	if err := <-errCh; !errors.Is(err, ErrProtocol) {
		t.Fatalf("err = %v, want ErrProtocol", err)
	}
}

func TestServerRejectsMismatchedLossGradShape(t *testing.T) {
	conn, errCh := serveOne(t, nil)
	defer conn.Close()
	if err := conn.Send(hello(2)); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Recv(); err != nil {
		t.Fatal(err)
	}
	a := tensor.New(4, 32)
	if err := conn.Send(&wire.Message{Type: wire.MsgActivations, Round: 0, Payload: wire.EncodeTensors(a)}); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Recv(); err != nil { // logits
		t.Fatal(err)
	}
	bad := tensor.New(4, 99) // wrong class count
	if err := conn.Send(&wire.Message{Type: wire.MsgLossGrad, Round: 0, Payload: wire.EncodeTensors(bad)}); err != nil {
		t.Fatal(err)
	}
	if err := <-errCh; !errors.Is(err, ErrProtocol) {
		t.Fatalf("err = %v, want ErrProtocol", err)
	}
}

func TestPlatformFailsCleanlyOnServerDeath(t *testing.T) {
	train, _ := testData(t, 2, 16, 4, 32)
	flat := flatten(train)
	front, _ := buildSplitMLP(t, 141, flat.X.Dim(1), 2)
	plat := defaultPlatform(t, 0, front, flat, 5, nil)

	sConn, pConn := transport.Pipe()
	// Server accepts the handshake then dies.
	go func() {
		m, err := sConn.Recv()
		if err != nil || m.Type != wire.MsgHello {
			sConn.Close()
			return
		}
		_ = sConn.Send(&wire.Message{Type: wire.MsgHelloAck, Payload: wire.EncodeText("mode=sequential")})
		sConn.Close()
	}()
	_, err := plat.Run(pConn)
	if err == nil {
		t.Fatal("platform must fail when the server dies")
	}
}

func TestPlatformRejectsPeerError(t *testing.T) {
	train, _ := testData(t, 2, 16, 4, 33)
	flat := flatten(train)
	front, _ := buildSplitMLP(t, 151, flat.X.Dim(1), 2)
	plat := defaultPlatform(t, 0, front, flat, 5, nil)

	sConn, pConn := transport.Pipe()
	go func() {
		defer sConn.Close()
		if _, err := sConn.Recv(); err != nil {
			return
		}
		_ = sConn.Send(&wire.Message{Type: wire.MsgErrorMsg, Payload: wire.EncodeText("config mismatch")})
	}()
	_, err := plat.Run(pConn)
	if !errors.Is(err, ErrProtocol) {
		t.Fatalf("err = %v, want ErrProtocol wrapping peer error", err)
	}
}

func TestRunLocalSurvivesPlatformConfigError(t *testing.T) {
	// A platform whose shard is smaller than its batch gets the batch
	// clamped (sampler behaviour), so build a genuinely broken pairing:
	// rounds mismatch, which must surface as one joined error, not a
	// deadlock.
	train, _ := testData(t, 2, 16, 4, 34)
	flat := flatten(train)
	front, back := buildSplitMLP(t, 161, flat.X.Dim(1), 2)
	srv := defaultServer(t, back, 1, 3, nil)
	plat := defaultPlatform(t, 0, front, flat, 9, nil)
	if _, err := RunLocal(srv, []*Platform{plat}); err == nil {
		t.Fatal("expected error")
	}
}

// A platform that dies mid-round (after shipping its first
// activations) must surface as a server error, not a hang, and leave
// no session goroutine behind once the caller closes the connection —
// exactly what RunLocal and the TCP commands do.
func TestPlatformDiesMidRound(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	conn, errCh := serveOne(t, nil)
	if err := conn.Send(hello(2)); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Recv(); err != nil { // hello-ack
		t.Fatal(err)
	}
	a := tensor.New(4, 32)
	if err := conn.Send(&wire.Message{Type: wire.MsgActivations, Round: 0, Payload: wire.EncodeTensors(a)}); err != nil {
		t.Fatal(err)
	}
	conn.Close() // die before answering the logits
	if err := <-errCh; err == nil {
		t.Fatal("server survived a platform dying mid-round")
	}
}

// A protocol violation by one platform mid-round must error the server,
// propagate to the healthy platform (which is blocked on the dead
// server), and leave no goroutines behind once connections close.
func TestServerErrorPropagatesToAllPlatforms(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	train, _ := testData(t, 3, 120, 8, 203)
	flat := flatten(train)
	in := flat.X.Dim(1)
	const rounds, K = 4, 2

	fronts, back := buildFronts(t, 411, K, in, 3)
	srv := defaultServer(t, back, K, rounds, nil)
	healthy := defaultPlatform(t, 1, fronts[1], flat, rounds, func(c *PlatformConfig) { c.ID = 1 })

	sConns := make([]transport.Conn, K)
	pConns := make([]transport.Conn, K)
	for k := 0; k < K; k++ {
		sConns[k], pConns[k] = transport.Pipe()
	}
	defer func() {
		for k := 0; k < K; k++ {
			sConns[k].Close()
			pConns[k].Close()
		}
	}()

	serverErr := make(chan error, 1)
	go func() {
		err := srv.Serve(sConns)
		if err != nil {
			for _, c := range sConns {
				c.Close()
			}
		}
		serverErr <- err
	}()
	healthyErr := make(chan error, 1)
	go func() {
		_, err := healthy.Run(pConns[1])
		healthyErr <- err
	}()

	// Platform 0 handshakes correctly, then violates the protocol with a
	// garbage activations payload.
	hostile := pConns[0]
	if err := hostile.Send(hello(rounds)); err != nil {
		t.Fatal(err)
	}
	if _, err := hostile.Recv(); err != nil { // hello-ack
		t.Fatal(err)
	}
	if err := hostile.Send(&wire.Message{Type: wire.MsgActivations, Round: 0, Payload: []byte{0xbe, 0xef}}); err != nil {
		t.Fatal(err)
	}

	if err := <-serverErr; !errors.Is(err, ErrProtocol) {
		t.Fatalf("server err = %v, want ErrProtocol", err)
	}
	if err := <-healthyErr; err == nil {
		t.Fatal("healthy platform did not observe the server failure")
	}
}

// In label-sharing mode the server computes the loss from labels the
// platform sends, and the loss indexes the logits by label. A label
// outside [0, classes) must fail the session with ErrProtocol naming
// the platform, in every scheduler that computes a server-side loss,
// instead of crashing the server process.
func TestServerRejectsOutOfRangeLabels(t *testing.T) {
	modes := []struct {
		name string
		mut  func(*ServerConfig)
	}{
		{"sequential", func(c *ServerConfig) {}},
		{"concat", func(c *ServerConfig) { c.Mode = RoundModeConcat }},
		{"bounded-staleness", func(c *ServerConfig) { c.Mode = RoundModeBoundedStaleness; c.Staleness = 1 }},
	}
	for _, mode := range modes {
		for _, label := range []int{2, -1} { // serveOne's model has 2 classes
			t.Run(fmt.Sprintf("%s/label=%d", mode.name, label), func(t *testing.T) {
				testutil.VerifyNoLeaks(t)
				conn, errCh := serveOne(t, func(c *ServerConfig) {
					c.LabelSharing = true
					c.Loss = nn.SoftmaxCrossEntropy{}
					mode.mut(c)
				})
				defer conn.Close()
				meta := "v=1;rounds=2;labelshare=true;sync=0;eval=0;codec=raw;evaluator=false"
				if err := conn.Send(&wire.Message{Type: wire.MsgHello, Payload: wire.EncodeText(meta)}); err != nil {
					t.Fatal(err)
				}
				if _, err := conn.Recv(); err != nil { // hello-ack
					t.Fatal(err)
				}
				a := tensor.New(4, 32)
				if err := conn.Send(&wire.Message{Type: wire.MsgActivations, Round: 0, Payload: wire.EncodeTensors(a)}); err != nil {
					t.Fatal(err)
				}
				labels := wire.EncodeLabels([]int{0, 1, label, 0})
				if err := conn.Send(&wire.Message{Type: wire.MsgLabels, Round: 0, Payload: labels}); err != nil {
					t.Fatal(err)
				}
				err := <-errCh
				if !errors.Is(err, ErrProtocol) {
					t.Fatalf("err = %v, want ErrProtocol", err)
				}
				if !strings.Contains(err.Error(), "platform 0") {
					t.Fatalf("err = %v does not name the offending platform", err)
				}
			})
		}
	}
}

// Label-sharing handshakes must agree on both ends.
func TestHandshakeRejectsLabelSharingMismatch(t *testing.T) {
	train, _ := testData(t, 2, 16, 4, 35)
	flat := flatten(train)
	front, back := buildSplitMLP(t, 171, flat.X.Dim(1), 2)
	srv := defaultServer(t, back, 1, 2, func(c *ServerConfig) {
		c.LabelSharing = true
		c.Loss = nn.SoftmaxCrossEntropy{}
	})
	plat := defaultPlatform(t, 0, front, flat, 2, nil) // label-private
	if _, err := RunLocal(srv, []*Platform{plat}); err == nil {
		t.Fatal("label-sharing mismatch accepted")
	}
}
