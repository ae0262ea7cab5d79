package graph

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/colsys"
	"repro/internal/group"
)

// csrDigest is the SHA-256 of a graph's CSR arrays: n, k, the n+1 node
// offsets, every half (peer, colour) and every mate index, each written as
// a little-endian int64. Two graphs share a digest exactly when their flat
// adjacency is byte-identical, which is what every engine reads.
func csrDigest(g *Graph) string {
	h := sha256.New()
	var buf [8]byte
	put := func(x int) {
		binary.LittleEndian.PutUint64(buf[:], uint64(int64(x)))
		h.Write(buf[:])
	}
	put(g.N())
	put(g.K())
	for v := 0; v < g.N(); v++ {
		lo, _ := g.HalfRange(v)
		put(lo)
	}
	put(len(g.Halves()))
	for _, half := range g.Halves() {
		put(half.Peer)
		put(int(half.Color))
	}
	for _, m := range g.Mates() {
		put(m)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// constructorGolden pins the CSR arrays of every package constructor. The
// digests were taken from the per-node-map construction path before the
// constructors moved onto CSRBuilder; a port that changes an instance, or
// an rng stream, changes its digest.
var constructorGolden = map[string]string{
	"bounded-degree/seed=1":   "3fa5e592075d48ab18a8f53e755712fd78b546704c8943f3475c719344607046",
	"bounded-degree/seed=2":   "6010db183212c0e38ef5043a01dfd435dfd7aea32e93a1bc8c5136f1c473d60e",
	"bounded-degree/seed=3":   "3ec7713d721b2cd5346ce468fc01195231129fa53ba615c67efafd2c4e12f732",
	"bounded-degree/seed=4":   "93890dd396817aa4d53ee259af3da2e709192887638ca73b5676f666a3454a13",
	"bounded-degree/seed=5":   "a8291161fda19ffc727a80c8799f408354ba312677141d9efcfb1a0fc4d26427",
	"cycle":                   "720fd16dbdcf682741b5beb774c7efe61eeb295b472120032bb14acd6cad902c",
	"figure1":                 "c5da5d9e50b2f8e86326671c729ea2fbfb78602515bb8b64b78700348ee23787",
	"from-system/full(3)/r=4": "a6e2c4c84e901dc2d5746ba2353637ba431e614ae9112df8ee321324efd01df2",
	"matching-union/seed=1":   "82feb35f619caaa05dca216579be541d87d47db8883a145fbf6364d37606b553",
	"matching-union/seed=2":   "badac21c35585837e9c71683e44aeef95dbb836a39978da96dff9d33a6e8742c",
	"matching-union/seed=3":   "9ca4b09f2ac0e825ac485d6404e1acda21f4d082fc8a18c54336993c75a9abc4",
	"matching-union/seed=4":   "747e13d4e28d18ca46b9f624e2f8836829cb1af082e5deee8eb1dd2eba02f3ec",
	"matching-union/seed=5":   "403c26173cc15c1d287d573d8dd173dcf81c9b563c70a6457acaf0432d95e86b",
	"path":                    "a37f87df6c3a84348c808955af1cf89377a42296e3541d99bd35725f4678505e",
	"regular/seed=1":          "3e76139c50cd2ca91689aed6136b6daabe57462ac49c792c47241909c29f3cfc",
	"regular/seed=2":          "fee08039b86fbf4aecf11ecadc49da94bde623bd4d689941670ed69679090e25",
	"regular/seed=3":          "142cf7abdb27aa62f30fc3cfd419f873c7937c14afc0f3424202d3a7309fb029",
	"regular/seed=4":          "b77de4549e2edaf40ed88b3c020d4b6113e6da520e42dd4cda7070f80bc6f50b",
	"regular/seed=5":          "10afc77a145b2592f4e6767d9a4234e69df5d2267ed2f97eb4d2d75410dbf476",
	"worstcase/k=2":           "419e69b4d9dc767d650468680a9695662a1c2090842b33efda79cfe6ab6b6707",
	"worstcase/k=3":           "83ed54be8cba23b350a03a5dc9baa0d360076d3a42d41790db91a0e1459eebca",
	"worstcase/k=4":           "592bdb1e66c0f915c2e8874bda7f86a031164368ba4986045df34775d1a7b543",
	"worstcase/k=5":           "2cdb117d14a86512d153da9d0dbbbcbfe9d8c193786c155e6af7f87ca02cc5f0",
	"worstcase/k=6":           "2d77fe8c5c335af384715b58ee10e2b3bdbc76bbc78ca34e672aaee9ab472043",
	"worstcase/k=7":           "29291a7d7110afe0bda8becfcf0f1c105cf49360095ac7f7913d4f0221b3d56b",
	"worstcase/k=8":           "2bb035b9f09a772c8178360a4d899e4eee1b787d0df980f838a9a9e6391a16a1",
	"worstcase/k=9":           "9cb9e459e7cdaa1fb4ff0acdd931821d3f0db367951007fbe641594a59eee94f",
}

// goldenInstances builds every instance constructorGolden names.
func goldenInstances(t *testing.T) map[string]*Graph {
	t.Helper()
	must := func(g *Graph, err error) *Graph {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	out := make(map[string]*Graph)
	for seed := int64(1); seed <= 5; seed++ {
		out[fmt.Sprintf("matching-union/seed=%d", seed)] =
			RandomMatchingUnion(200, 6, 0.7, rand.New(rand.NewSource(seed)))
		out[fmt.Sprintf("bounded-degree/seed=%d", seed)] =
			RandomBoundedDegree(150, 64, 3, 800, rand.New(rand.NewSource(seed)))
		out[fmt.Sprintf("regular/seed=%d", seed)] =
			must(RandomRegular(64, 5, rand.New(rand.NewSource(seed))))
	}
	for k := 2; k <= 9; k++ {
		wc, err := NewWorstCase(k)
		if err != nil {
			t.Fatal(err)
		}
		if wc.U != 0 || wc.V != k+1 {
			t.Fatalf("worst case k=%d: endpoints (%d, %d), want (0, %d)", k, wc.U, wc.V, k+1)
		}
		out[fmt.Sprintf("worstcase/k=%d", k)] = wc.G
	}
	out["path"] = must(PathGraph(4, []group.Color{1, 2, 3, 1, 4, 2}))
	out["cycle"] = must(cycleGraph(3, []group.Color{1, 2, 3, 1, 2, 3}))
	out["figure1"] = must(Figure1())
	cayley, _, err := FromSystem(colsys.Full(3), 4)
	out["from-system/full(3)/r=4"] = must(cayley, err)
	return out
}

// TestConstructorGolden checks every constructor's CSR digest against the
// pinned table.
func TestConstructorGolden(t *testing.T) {
	got := goldenInstances(t)
	if len(got) != len(constructorGolden) {
		t.Errorf("%d instances, %d pinned digests", len(got), len(constructorGolden))
	}
	for name, g := range got {
		if d := csrDigest(g); d != constructorGolden[name] {
			t.Errorf("%s: digest %s, pinned %s", name, d, constructorGolden[name])
		}
	}
}
