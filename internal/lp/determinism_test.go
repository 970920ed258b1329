package lp

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"testing"
)

// wideProblems returns two instances with thousands of columns (6161 and
// 16387), far wider than anything in the parity corpus. Cover-style GE rows
// force both phases to pivot, and the randomized sparse columns give
// Dantzig and Devex pricing many near-ties over long column scans.
func wideProblems() map[string]*Problem {
	probs := map[string]*Problem{}
	for _, w := range []struct {
		name string
		seed int64
		m, n int
	}{
		{"wide-cover", 7, 48, 6161},
		{"wide-mixed", 19, 32, 16387},
	} {
		r := rand.New(rand.NewSource(w.seed))
		q := NewProblem(Minimize, w.n)
		x0 := make([]float64, w.m) // target row activities
		rows := make([][]float64, w.m)
		for i := range rows {
			rows[i] = make([]float64, w.n)
			x0[i] = 1 + r.Float64()*4
		}
		for j := 0; j < w.n; j++ {
			q.Obj[j] = r.Float64()
			// Each column touches 1–3 rows with positive weight.
			for k, t := 0, 1+r.Intn(3); k < t; k++ {
				rows[r.Intn(w.m)][j] = math.Abs(r.NormFloat64())
			}
		}
		for i, coeffs := range rows {
			switch {
			case w.name == "wide-mixed" && i%5 == 0:
				q.AddConstraint("eq", coeffs, EQ, x0[i])
			default:
				q.AddConstraint("ge", coeffs, GE, x0[i])
			}
		}
		probs[w.name] = q
	}
	return probs
}

// trajectoryPin is one solve's pinned outcome: its status, its work, and a
// SHA-256 over the objective's bits, every solution component's bits and
// the exported basis bytes. Equal pins mean the solve took the same pivot
// path to the same vertex, bit for bit.
type trajectoryPin struct {
	status           Status
	pivots, refactor int
	digest           string
}

// solutionDigest hashes what a trajectoryPin compares bit for bit.
func solutionDigest(t *testing.T, sol *Solution, basis *Basis) string {
	t.Helper()
	h := sha256.New()
	var buf [8]byte
	put := func(v float64) {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
	put(sol.Objective)
	for _, x := range sol.X {
		put(x)
	}
	if basis != nil {
		b, err := basis.MarshalBinary()
		if err != nil {
			t.Fatalf("marshal basis: %v", err)
		}
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// pricingGolden pins every parity and wide instance under both kernel
// configurations. The values were recorded while the pricing scans could
// still fan out over a worker pool; the sequential scans that replaced it
// reproduce them exactly.
var pricingGolden = map[string]trajectoryPin{
	"balance-mild/dense+dantzig":  {Optimal, 17, 3, "f9ebf8a5746021f83dbd96404f88d4aa4b37edfd66e548305117fe9cfd781358"},
	"balance-mild/sparse+devex":   {Optimal, 17, 3, "83ac17c36b92e094b73054504f737eb158fda36d8e65cb5754ae55945cf0f28e"},
	"balance-stiff/dense+dantzig": {Optimal, 16, 3, "c1e04b4d2451fc082e34fa0be37859c707341b21da73acbe0934b5d39984b525"},
	"balance-stiff/sparse+devex":  {Optimal, 15, 3, "a06ec0a6cfd4c7059d43ca324214af9da12743bbd6d0bb6798de7231d0c87681"},
	"beale/dense+dantzig":         {Optimal, 2, 2, "f6b19668d6951b5f325a3a66504fea52909b13c65afdd3e78f1019380a2308f5"},
	"beale/sparse+devex":          {Optimal, 2, 2, "f6b19668d6951b5f325a3a66504fea52909b13c65afdd3e78f1019380a2308f5"},
	"equality/dense+dantzig":      {Optimal, 2, 2, "67b2a5e88ec6340f3b4dfdafd2d6934658a5ff629219f6519360ce57afd7740c"},
	"equality/sparse+devex":       {Optimal, 2, 2, "67b2a5e88ec6340f3b4dfdafd2d6934658a5ff629219f6519360ce57afd7740c"},
	"infeasible/dense+dantzig":    {Infeasible, 1, 2, "af5570f5a1810b7af78caf4bc70a660f0df51e42baf91d4de5b2328de0e83dfc"},
	"infeasible/sparse+devex":     {Infeasible, 1, 2, "af5570f5a1810b7af78caf4bc70a660f0df51e42baf91d4de5b2328de0e83dfc"},
	"min-ge/dense+dantzig":        {Optimal, 3, 3, "35e0acbf77352c2bba3f8b8bdde3990f9f139ed5cffc8a12413110f606da8b11"},
	"min-ge/sparse+devex":         {Optimal, 3, 3, "35e0acbf77352c2bba3f8b8bdde3990f9f139ed5cffc8a12413110f606da8b11"},
	"neg-rhs/dense+dantzig":       {Optimal, 1, 2, "7bbb47c462cb5cd8873764140a2baf0fbd128ce6740eff1900e6e2a670d9a35f"},
	"neg-rhs/sparse+devex":        {Optimal, 1, 2, "7bbb47c462cb5cd8873764140a2baf0fbd128ce6740eff1900e6e2a670d9a35f"},
	"random-a0/dense+dantzig":     {Optimal, 8, 3, "59292c74973de278e7a868e7489b7b7d09dc865c4bf192a39aaceda9e2d4382d"},
	"random-a0/sparse+devex":      {Optimal, 8, 3, "c2fdea088d4b11dd884a4959c877360da3cc813920201286a0a19ac76b028edf"},
	"random-a1/dense+dantzig":     {Optimal, 4, 3, "af3cba28c41fa7357a4843c7c37a3b88ac1aefefeebf6e893454e4966a46c717"},
	"random-a1/sparse+devex":      {Optimal, 4, 3, "af3cba28c41fa7357a4843c7c37a3b88ac1aefefeebf6e893454e4966a46c717"},
	"random-b0/dense+dantzig":     {Optimal, 2, 3, "c27884fc33b977c2f02576a3dba2030293fb207ff60be4791e110727774166ea"},
	"random-b0/sparse+devex":      {Optimal, 2, 3, "c27884fc33b977c2f02576a3dba2030293fb207ff60be4791e110727774166ea"},
	"random-b1/dense+dantzig":     {Optimal, 0, 1, "6ab3cd0365cf189e88966add428bd7151148ec44eeefd0f0e4085473e3b94f5c"},
	"random-b1/sparse+devex":      {Optimal, 0, 1, "6ab3cd0365cf189e88966add428bd7151148ec44eeefd0f0e4085473e3b94f5c"},
	"random-c0/dense+dantzig":     {Optimal, 4, 3, "3ca2ab60068e4b213fdbf90b5e5821d728237b54457f7a5c50b4035cb6bee359"},
	"random-c0/sparse+devex":      {Optimal, 4, 3, "3ca2ab60068e4b213fdbf90b5e5821d728237b54457f7a5c50b4035cb6bee359"},
	"random-c1/dense+dantzig":     {Optimal, 1, 2, "84d933920e6444577e9a278cd76269fb208ec976802e30c25efbbdf2a987e46d"},
	"random-c1/sparse+devex":      {Optimal, 1, 2, "84d933920e6444577e9a278cd76269fb208ec976802e30c25efbbdf2a987e46d"},
	"random-d0/dense+dantzig":     {Optimal, 2, 3, "1ce6c981569cf066ade2f43eafccc8a071b2ee64576f0c15487e544f2441deb3"},
	"random-d0/sparse+devex":      {Optimal, 2, 3, "007170d07ae0a2ed40d00d14fe1a0bd0b90041fb0776ff4a1e0147fc97a62958"},
	"random-d1/dense+dantzig":     {Optimal, 6, 3, "b1c7776c1c53f45c2324edee4ad46d99ee85cdf7dc23e9c3149ff82768554176"},
	"random-d1/sparse+devex":      {Optimal, 6, 3, "b1c7776c1c53f45c2324edee4ad46d99ee85cdf7dc23e9c3149ff82768554176"},
	"random-e0/dense+dantzig":     {Optimal, 7, 3, "9544b562e8d383eafe64ca5bea6cbd1b963db62f584dfbd351ace21c654aef74"},
	"random-e0/sparse+devex":      {Optimal, 6, 3, "f93babcfd2bc055a2917e1849cfb509da2dc48075c5160267e3b238cebcc89a1"},
	"random-e1/dense+dantzig":     {Optimal, 3, 3, "36fe714f2cfef9e55f137d42a7779a88cbedd7ccb798e7774e03b89db585956b"},
	"random-e1/sparse+devex":      {Optimal, 3, 3, "95ab3fecfea2c29d0b66a953105f9caab8a9925cf6cc893664817a673e4579b1"},
	"random-f0/dense+dantzig":     {Optimal, 3, 3, "e56328d174322819cd334468a2020028ee72aecfc73947dbbc55a35468065e8a"},
	"random-f0/sparse+devex":      {Optimal, 3, 3, "759e6667a1daf8078bf06bbdc1fda5f0d727c5e2c6bd66889cc7f7dfce7993a6"},
	"random-f1/dense+dantzig":     {Optimal, 2, 2, "590c8d9844b4a7f29cb2a6332b43e4ee7ebef053f912e81dfa1001a813442c0b"},
	"random-f1/sparse+devex":      {Optimal, 2, 2, "590c8d9844b4a7f29cb2a6332b43e4ee7ebef053f912e81dfa1001a813442c0b"},
	"random-g0/dense+dantzig":     {Optimal, 3, 3, "88478ff86117e9dcf2e878dff58ae48c363ead3031bea9ed3469ae076adb1e9e"},
	"random-g0/sparse+devex":      {Optimal, 3, 3, "88478ff86117e9dcf2e878dff58ae48c363ead3031bea9ed3469ae076adb1e9e"},
	"random-g1/dense+dantzig":     {Optimal, 2, 2, "bc3db31f67d7a16abb612200425a3af9c0111fc94fb5415782c54a77b5f435b2"},
	"random-g1/sparse+devex":      {Optimal, 2, 2, "bc3db31f67d7a16abb612200425a3af9c0111fc94fb5415782c54a77b5f435b2"},
	"random-h0/dense+dantzig":     {Optimal, 1, 2, "d0bdec7082b768368bdef5b78a793d3da27c45c4d0a3f47dbd6c37fda8b114d7"},
	"random-h0/sparse+devex":      {Optimal, 1, 2, "d0bdec7082b768368bdef5b78a793d3da27c45c4d0a3f47dbd6c37fda8b114d7"},
	"random-h1/dense+dantzig":     {Optimal, 3, 2, "8787ff9d6ff9beb7df0527d88a00331a14cb2db9e8f637aa63c470d39bd6101d"},
	"random-h1/sparse+devex":      {Optimal, 3, 2, "bd0b4b46e335bdf007883d1b0322f1b064684c61524046199720252026858ba4"},
	"random-i0/dense+dantzig":     {Optimal, 1, 2, "bcf8d2d5efecf75b3472385437dffa3f7ff4b208f81312344af5f19ecea1fb4e"},
	"random-i0/sparse+devex":      {Optimal, 1, 2, "bcf8d2d5efecf75b3472385437dffa3f7ff4b208f81312344af5f19ecea1fb4e"},
	"random-i1/dense+dantzig":     {Optimal, 2, 3, "fa9b5da5fad3c20cb56fd393b62c0955765bd156d3d508cb45daddc70129015d"},
	"random-i1/sparse+devex":      {Optimal, 2, 3, "fa9b5da5fad3c20cb56fd393b62c0955765bd156d3d508cb45daddc70129015d"},
	"random-j0/dense+dantzig":     {Optimal, 1, 2, "dcf1b3ae4190ebc85c632a48f779a414f5499d77bcfc683aa6e355bd338f6f92"},
	"random-j0/sparse+devex":      {Optimal, 1, 2, "dcf1b3ae4190ebc85c632a48f779a414f5499d77bcfc683aa6e355bd338f6f92"},
	"random-j1/dense+dantzig":     {Optimal, 1, 2, "08d26ed5327e5952339399a5955c4af9fea34922bf0f1947c5f9d6f7eeee5c65"},
	"random-j1/sparse+devex":      {Optimal, 1, 2, "08d26ed5327e5952339399a5955c4af9fea34922bf0f1947c5f9d6f7eeee5c65"},
	"random-k0/dense+dantzig":     {Optimal, 8, 3, "f616404516c2a83820de7fd2ca1ee823dface84c4039cc7e0b1604466067d74c"},
	"random-k0/sparse+devex":      {Optimal, 8, 3, "9b483d8a9445053e24f6e1cda9868fd6712522d9839e1bc56285f364d539ee31"},
	"random-k1/dense+dantzig":     {Optimal, 2, 2, "2db7e4bf799b3870d793e48c1c4d599c63ee6da7a5ece4288297f5ce439cb132"},
	"random-k1/sparse+devex":      {Optimal, 2, 2, "2db7e4bf799b3870d793e48c1c4d599c63ee6da7a5ece4288297f5ce439cb132"},
	"random-l0/dense+dantzig":     {Optimal, 2, 2, "b49e224d5fdc7670d37b14a36457a83fce9591c2911dff5db912272e5420f75c"},
	"random-l0/sparse+devex":      {Optimal, 2, 2, "b49e224d5fdc7670d37b14a36457a83fce9591c2911dff5db912272e5420f75c"},
	"random-l1/dense+dantzig":     {Unbounded, 2, 2, "af5570f5a1810b7af78caf4bc70a660f0df51e42baf91d4de5b2328de0e83dfc"},
	"random-l1/sparse+devex":      {Unbounded, 2, 2, "af5570f5a1810b7af78caf4bc70a660f0df51e42baf91d4de5b2328de0e83dfc"},
	"random-m0/dense+dantzig":     {Optimal, 6, 3, "8337206164e2996d40cc2b4ab45fa37f92345594906c22a57b1cd533f3f97f5e"},
	"random-m0/sparse+devex":      {Optimal, 6, 3, "7267871e99ed68f26a0105e58db9eee5b87d8bdae93b87a88ab576954cb6dc43"},
	"random-m1/dense+dantzig":     {Optimal, 6, 3, "5c227b90e771b1edf60a9492cf2aed85457274a8e49b688b3ffa8a06d79d6264"},
	"random-m1/sparse+devex":      {Optimal, 5, 2, "71f7312747fdccdb3213fc10b59ea579da450d1c06ef5d9805a4700f89b87396"},
	"random-n0/dense+dantzig":     {Unbounded, 2, 2, "af5570f5a1810b7af78caf4bc70a660f0df51e42baf91d4de5b2328de0e83dfc"},
	"random-n0/sparse+devex":      {Unbounded, 2, 2, "af5570f5a1810b7af78caf4bc70a660f0df51e42baf91d4de5b2328de0e83dfc"},
	"random-n1/dense+dantzig":     {Optimal, 4, 3, "0bbecff2076874eb52ed277636631b6856c8b7efa7cc09ac98cd09f6f1b53aa0"},
	"random-n1/sparse+devex":      {Optimal, 4, 3, "0bbecff2076874eb52ed277636631b6856c8b7efa7cc09ac98cd09f6f1b53aa0"},
	"random-o0/dense+dantzig":     {Optimal, 3, 3, "1ffcbbd192f05005512c5e9de2f2623659b192e517cc2c53a8851ae1697c1d18"},
	"random-o0/sparse+devex":      {Optimal, 3, 3, "1ffcbbd192f05005512c5e9de2f2623659b192e517cc2c53a8851ae1697c1d18"},
	"random-p0/dense+dantzig":     {Optimal, 3, 2, "6c38781d4e9e135ed462f22e54b0393bb6bf3b7a3d374b56c7064785d0427f1b"},
	"random-p0/sparse+devex":      {Optimal, 3, 2, "10841075a0f69ab50d6fa1b3b59fac4c2e23c478e45beed2a57fa3a0b0cd5c11"},
	"random-q0/dense+dantzig":     {Optimal, 3, 3, "b9444a53f049c1fc4a454a6fdbd7f81c943ff7dfcecf04c85f3231175c8e8343"},
	"random-q0/sparse+devex":      {Optimal, 3, 3, "b9444a53f049c1fc4a454a6fdbd7f81c943ff7dfcecf04c85f3231175c8e8343"},
	"random-r0/dense+dantzig":     {Optimal, 2, 2, "63072e09a5978df0c7052419919c581b02abce639d0ca18574248b2d85c14ce2"},
	"random-r0/sparse+devex":      {Optimal, 2, 2, "63072e09a5978df0c7052419919c581b02abce639d0ca18574248b2d85c14ce2"},
	"random-s0/dense+dantzig":     {Optimal, 2, 3, "35c87d251d776cc803f9574e720f89ab592748777aeffcd0d57aad09ced9d975"},
	"random-s0/sparse+devex":      {Optimal, 2, 3, "35c87d251d776cc803f9574e720f89ab592748777aeffcd0d57aad09ced9d975"},
	"random-t0/dense+dantzig":     {Optimal, 4, 3, "2055c562f4b9001b6f8cf047c7fad36ec42333b1b0f7f6a0affc6761a3c18fe7"},
	"random-t0/sparse+devex":      {Optimal, 4, 3, "64ea62e972d90077331b8231ec0479a7c0a73a02cbaa4c94bca847633dea0046"},
	"random-u0/dense+dantzig":     {Optimal, 4, 3, "9a2a0f439b20e2a4b26615da9242a1a89112037035c7a3adeff716c728a2e55e"},
	"random-u0/sparse+devex":      {Optimal, 4, 3, "9a2a0f439b20e2a4b26615da9242a1a89112037035c7a3adeff716c728a2e55e"},
	"random-v0/dense+dantzig":     {Optimal, 4, 3, "170bb95265aba35192c8a390b4b057c37341ecd5b03d30fca45bafc9ac89341f"},
	"random-v0/sparse+devex":      {Optimal, 4, 3, "6aa85245be13abc8a796f012f08a4f55d75f47fed915f251a40faafb69d07203"},
	"random-w0/dense+dantzig":     {Optimal, 6, 3, "2594fc00f4e7754c2d14ece3121bb755b10e81895d5e01d190fd78dcb655a103"},
	"random-w0/sparse+devex":      {Optimal, 6, 3, "2594fc00f4e7754c2d14ece3121bb755b10e81895d5e01d190fd78dcb655a103"},
	"random-x0/dense+dantzig":     {Optimal, 5, 3, "000bbc7c6fc51bd1fec685cd42ce4aeb93327476a06f52dbbbfe06829694e9a0"},
	"random-x0/sparse+devex":      {Optimal, 5, 3, "000bbc7c6fc51bd1fec685cd42ce4aeb93327476a06f52dbbbfe06829694e9a0"},
	"random-y0/dense+dantzig":     {Optimal, 3, 3, "57ffbbd01b3af767675d129839c7ed3fba3cf44dd7879034a84e0d3c2dd6bd74"},
	"random-y0/sparse+devex":      {Optimal, 3, 3, "57ffbbd01b3af767675d129839c7ed3fba3cf44dd7879034a84e0d3c2dd6bd74"},
	"random-z0/dense+dantzig":     {Optimal, 11, 3, "119b8847e5fb6525a59872b2a8ab2bfcf8eb6c24d9085be075061da2a1fa8514"},
	"random-z0/sparse+devex":      {Optimal, 9, 3, "16bcf689cb75d1e88826ed74d58767bb8340ce290c79c3e06449d2c8a866d511"},
	"redundant-eq/dense+dantzig":  {Optimal, 1, 2, "84f55809c95c39c2afdbc78aeab1bdcd830d3c2dc48591a7209d2a8c2beec0c5"},
	"redundant-eq/sparse+devex":   {Optimal, 1, 2, "84f55809c95c39c2afdbc78aeab1bdcd830d3c2dc48591a7209d2a8c2beec0c5"},
	"textbook-max/dense+dantzig":  {Optimal, 2, 2, "9e0054c6c904a3753bc7b041cf26da78e3851cdb98916be53e0d3905a8cfcf4b"},
	"textbook-max/sparse+devex":   {Optimal, 2, 2, "9e0054c6c904a3753bc7b041cf26da78e3851cdb98916be53e0d3905a8cfcf4b"},
	"unbounded/dense+dantzig":     {Unbounded, 1, 1, "af5570f5a1810b7af78caf4bc70a660f0df51e42baf91d4de5b2328de0e83dfc"},
	"unbounded/sparse+devex":      {Unbounded, 1, 1, "af5570f5a1810b7af78caf4bc70a660f0df51e42baf91d4de5b2328de0e83dfc"},
	"wide-cover/dense+dantzig":    {Optimal, 218, 7, "34612182a2953a01a8b7a64ef4ed6fda8dea2f578928a61ab355544db8b85a7d"},
	"wide-cover/sparse+devex":     {Optimal, 227, 4, "bd5d3facd889cc2b3cb3a56e1bf3cc75cbfd967fcb00487fa5529fd47e83d797"},
	"wide-mixed/dense+dantzig":    {Optimal, 172, 5, "bcfd1e28e05865b4e2933aaa8ceff3af8b2646c77ca12eadfa06b841c497be3f"},
	"wide-mixed/sparse+devex":     {Optimal, 188, 4, "9df95ae87fd718e3e639dc9dbc4ef275d52587fcee7c4462cd74461615dddc73"},
}

// TestPricingTrajectoryGolden is the cross-version trajectory contract of
// the pricing scans: every corpus and wide instance, under the dense kernel
// with Dantzig pricing and the forced at-scale kernel with Devex, must
// reproduce its pinned status, pivot and refactorization counts and
// solution digest. A pivot path that diverged anywhere could not re-converge
// to the same counts and bits, so a failure here means a change altered
// which column enters, not merely how fast it is found.
func TestPricingTrajectoryGolden(t *testing.T) {
	probs := parityProblems()
	for name, p := range wideProblems() {
		probs[name] = p
	}
	seen := map[string]bool{}
	for name, p := range probs {
		for _, kc := range kernelConfigs {
			key := name + "/" + kc.name
			seen[key] = true
			sol, basis, err := NewSolver(kc.opts...).Solve(context.Background(), p, nil)
			if err != nil && sol.Status != Infeasible && sol.Status != Unbounded {
				t.Errorf("%s: %v", key, err)
				continue
			}
			got := trajectoryPin{sol.Status, sol.Iterations, sol.Refactorizations, solutionDigest(t, sol, basis)}
			want, ok := pricingGolden[key]
			if !ok {
				t.Errorf("%s: no pin; measured {%d, %d, %d, %q}", key, got.status, got.pivots, got.refactor, got.digest)
				continue
			}
			if got != want {
				t.Errorf("%s: got %+v, pinned %+v", key, got, want)
			}
		}
	}
	for key := range pricingGolden {
		if !seen[key] {
			t.Errorf("%s: pinned but no longer in the corpus", key)
		}
	}
}

// recordingMonitor captures every flight-recorder snapshot.
type recordingMonitor struct {
	events []Snapshot
}

func (m *recordingMonitor) Observe(s Snapshot) { m.events = append(m.events, s) }

// TestMonitorDeterminism is the no-trajectory-perturbation contract of the
// flight recorder: for every corpus and wide instance, a solve with a
// recording monitor attached at the tightest cadence (every pivot) must
// reproduce the bare solve exactly — same pivot and refactorization counts,
// bit-identical objective and solution vector, byte-identical exported
// basis. The warm-start path is held to the same standard. Run under -race
// this also proves snapshots read no state the pivot loop is writing
// concurrently.
func TestMonitorDeterminism(t *testing.T) {
	probs := parityProblems()
	for name, p := range wideProblems() {
		probs[name] = p
	}
	solve := func(p *Problem, warm *Basis, opts ...Option) (*Solution, *Basis) {
		t.Helper()
		sol, basis, err := NewSolver(opts...).Solve(context.Background(), p, warm)
		if err != nil && sol.Status != Infeasible && sol.Status != Unbounded {
			t.Fatalf("solve: %v", err)
		}
		return sol, basis
	}
	compare := func(tag string, bare, mon *Solution, bareBasis, monBasis *Basis) {
		t.Helper()
		if mon.Status != bare.Status {
			t.Errorf("%s: status %v, bare %v", tag, mon.Status, bare.Status)
			return
		}
		if mon.Iterations != bare.Iterations {
			t.Errorf("%s: pivots %d, bare %d", tag, mon.Iterations, bare.Iterations)
		}
		if mon.Refactorizations != bare.Refactorizations {
			t.Errorf("%s: refactorizations %d, bare %d", tag, mon.Refactorizations, bare.Refactorizations)
		}
		if mon.Objective != bare.Objective {
			t.Errorf("%s: objective %v, bare %v (not bit-identical)", tag, mon.Objective, bare.Objective)
		}
		for j := range bare.X {
			if mon.X[j] != bare.X[j] {
				t.Errorf("%s: x[%d] = %v, bare %v (not bit-identical)", tag, j, mon.X[j], bare.X[j])
				break
			}
		}
		switch {
		case (monBasis == nil) != (bareBasis == nil):
			t.Errorf("%s: basis presence %v, bare %v", tag, monBasis != nil, bareBasis != nil)
		case monBasis != nil:
			got, err1 := monBasis.MarshalBinary()
			want, err2 := bareBasis.MarshalBinary()
			if err1 != nil || err2 != nil {
				t.Fatalf("%s: marshal: %v / %v", tag, err1, err2)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("%s: basis differs from bare solve", tag)
			}
		}
	}
	for name, p := range probs {
		bare, bareBasis := solve(p, nil)
		rec := &recordingMonitor{}
		mon, monBasis := solve(p, nil, WithMonitor(rec), WithMonitorEvery(1))
		compare(name, bare, mon, bareBasis, monBasis)

		// The monitor must have seen a coherent event stream: balanced
		// start/finish pairs and non-decreasing pivot counts per attempt.
		starts, finishes := 0, 0
		pivots := 0
		for _, ev := range rec.events {
			switch ev.Event {
			case "start":
				starts++
				pivots = 0
			case "finish":
				finishes++
			}
			if ev.Pivots < pivots {
				t.Errorf("%s: pivot counter went backwards within an attempt (%d after %d)", name, ev.Pivots, pivots)
			}
			pivots = ev.Pivots
		}
		if starts == 0 || starts != finishes {
			t.Errorf("%s: %d start events vs %d finish events", name, starts, finishes)
		}
		if bare.Status == Optimal && bare.Iterations > 0 && len(rec.events) <= 2 {
			t.Errorf("%s: only %d events for a %d-pivot solve at cadence 1", name, len(rec.events), bare.Iterations)
		}

		// Warm restarts must be equally untouched by an attached monitor.
		if bareBasis == nil {
			continue
		}
		warmBare, warmBareBasis := solve(p, bareBasis)
		warmRec := &recordingMonitor{}
		warmMon, warmMonBasis := solve(p, bareBasis, WithMonitor(warmRec), WithMonitorEvery(1))
		compare(name+"/warm", warmBare, warmMon, warmBareBasis, warmMonBasis)
		if len(warmRec.events) == 0 {
			t.Errorf("%s/warm: monitor saw no events", name)
		}
	}
}
