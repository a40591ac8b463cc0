import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from driftlab.core import (
    MISSING,
    NOMINAL,
    NUMERIC,
    Attribute,
    ConfigError,
    Instance,
    LoadedStream,
    SchemaMismatch,
    StreamSchema,
    UnknownClass,
)
from driftlab.generators import DriftProfile, gen_drift_stream
from driftlab.hybrid import HybridConfig, run_stream
from driftlab.streams import (
    MalformedHeader,
    SparseNotSupported,
    StreamSpec,
    UnknownNominalValue,
    parse_stream_spec,
    read_arff,
    read_csv,
    write_csv,
)

MIXED_SCHEMA = StreamSchema(
    (
        Attribute("temp", NUMERIC),
        Attribute("sky", NOMINAL, ("clear", "cloudy")),
    ),
    ("stay", "go"),
)


class TestReadCsv:
    def test_with_schema(self, tmp_path):
        p = tmp_path / "s.csv"
        p.write_text("temp,sky,class\n21.5,clear,go\n3.0,cloudy,stay\n")
        stream = read_csv(p, schema=MIXED_SCHEMA)
        assert stream.instances == [
            Instance((21.5, 0), label=1),
            Instance((3.0, 1), label=0),
        ]
        assert stream.schema is MIXED_SCHEMA
        assert stream.name == "s"

    def test_missing_cells(self, tmp_path):
        p = tmp_path / "s.csv"
        p.write_text("temp,sky,class\n?,clear,go\n4.5,?,stay\n,,go\n")
        stream = read_csv(p, schema=MIXED_SCHEMA)
        assert stream.instances[0].features == (MISSING, 0)
        assert stream.instances[1].features == (4.5, MISSING)
        assert stream.instances[2].features == (MISSING, MISSING)

    def test_arity_mismatch(self, tmp_path):
        p = tmp_path / "s.csv"
        p.write_text("1.0,clear,go\n1.0,go\n")
        with pytest.raises(SchemaMismatch, match=":2"):
            read_csv(p, schema=MIXED_SCHEMA, has_header=False)

    def test_unknown_nominal_value(self, tmp_path):
        p = tmp_path / "s.csv"
        p.write_text("1.0,stormy,go\n")
        with pytest.raises(UnknownNominalValue, match="stormy"):
            read_csv(p, schema=MIXED_SCHEMA, has_header=False)

    def test_unknown_class(self, tmp_path):
        p = tmp_path / "s.csv"
        p.write_text("1.0,clear,sprint\n")
        with pytest.raises(UnknownClass, match="sprint"):
            read_csv(p, schema=MIXED_SCHEMA, has_header=False)

    def test_inferred_schema_is_all_numeric(self, tmp_path):
        p = tmp_path / "s.csv"
        p.write_text("a,b,class\n1.0,2.0,up\n3.5,bad,down\n0.5,4.0,up\n")
        stream = read_csv(p)
        schema = stream.schema
        assert all(a.kind == NUMERIC for a in schema.attributes)
        assert [a.name for a in schema.attributes] == ["a", "b"]
        # class indices in order of first appearance
        assert schema.class_names == ("up", "down")
        assert [i.label for i in stream] == [0, 1, 0]
        # the unparseable cell became a missing value
        assert stream.instances[1].features == (3.5, MISSING)

    def test_inferred_without_header_names_columns(self, tmp_path):
        p = tmp_path / "s.csv"
        p.write_text("1.0,2.0,up\n3.0,4.0,down\n")
        stream = read_csv(p)
        assert [a.name for a in stream.schema.attributes] == ["x0", "x1"]
        assert len(stream) == 2

    def test_header_auto_detection(self, tmp_path):
        # first row with any numeric-looking cell is data
        p = tmp_path / "s.csv"
        p.write_text("1.0,clear,go\n2.0,cloudy,stay\n")
        stream = read_csv(p, schema=MIXED_SCHEMA)
        assert len(stream) == 2

    def test_header_forced_off(self, tmp_path):
        # a row that would auto-detect as a header is kept as data
        p = tmp_path / "s.csv"
        p.write_text("a,b,class\n1.0,2.0,up\n3.0,4.0,down\n")
        stream = read_csv(p, has_header=False)
        assert len(stream) == 3
        assert stream.schema.class_names == ("class", "up", "down")
        assert stream.instances[0].features == (MISSING, MISSING)

    def test_blank_lines_skipped(self, tmp_path):
        p = tmp_path / "s.csv"
        p.write_text("temp,sky,class\n\n1.0,clear,go\n\n")
        stream = read_csv(p, schema=MIXED_SCHEMA)
        assert len(stream) == 1

    def test_empty_file_without_schema(self, tmp_path):
        p = tmp_path / "s.csv"
        p.write_text("")
        with pytest.raises(SchemaMismatch):
            read_csv(p)

    def test_single_class_file_rejected(self, tmp_path):
        p = tmp_path / "s.csv"
        p.write_text("1.0,up\n2.0,up\n")
        with pytest.raises(SchemaMismatch):
            read_csv(p)

    def test_missing_file_raises_oserror(self, tmp_path):
        with pytest.raises(OSError):
            read_csv(tmp_path / "nope.csv")


class TestWriteCsv:
    def test_round_trip_with_schema(self, tmp_path):
        rows = [
            Instance((21.5, 0), label=1),
            Instance((MISSING, 1), label=0),
            Instance((-3.25e-5, MISSING), label=1),
        ]
        stream = LoadedStream("w", MIXED_SCHEMA, rows, {})
        p = tmp_path / "out.csv"
        write_csv(p, stream)
        back = read_csv(p, schema=MIXED_SCHEMA)
        assert back.instances == rows

    def test_rejects_unlabeled(self, tmp_path):
        stream = LoadedStream("w", MIXED_SCHEMA, [Instance((1.0, 0))], {})
        with pytest.raises(ValueError):
            write_csv(tmp_path / "out.csv", stream)

    def test_generated_stream_round_trip(self, tmp_path):
        prof = DriftProfile("sudden", (50,))
        stream = gen_drift_stream(prof, "gaussian-clusters", 100, seed=3)
        p = tmp_path / "gen.csv"
        write_csv(p, stream)
        back = read_csv(p)
        # inferred class order follows first appearance, so compare by name
        assert [i.features for i in back] == [i.features for i in stream]
        assert [back.schema.class_names[i.label] for i in back] == [
            stream.schema.class_names[i.label] for i in stream
        ]


@settings(max_examples=50, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.floats(allow_nan=False, allow_infinity=False, width=64),
            st.one_of(st.none(), st.floats(allow_nan=False, allow_infinity=False)),
            st.integers(0, 1),
        ),
        min_size=1,
        max_size=20,
    )
)
def test_csv_round_trip_property(tmp_path_factory, rows):
    # shortest-repr float formatting must survive a full write/read cycle
    schema = StreamSchema(
        (Attribute("x0", NUMERIC), Attribute("x1", NUMERIC)), ("c0", "c1")
    )
    instances = [Instance((a, b), label=y) for a, b, y in rows]
    stream = LoadedStream("prop", schema, instances, {})
    p = tmp_path_factory.mktemp("rt") / "x.csv"
    write_csv(p, stream)
    assert read_csv(p, schema=schema).instances == instances


ARFF_OK = """% toy weather stream
@relation weather

@attribute temp numeric
@attribute sky {clear, cloudy}
@attribute class {stay, go}

@data
21.5, clear, go
?, cloudy, stay
3.0, ?, go
"""


class TestReadArff:
    def test_reads_dense_subset(self, tmp_path):
        p = tmp_path / "w.arff"
        p.write_text(ARFF_OK)
        stream = read_arff(p)
        assert stream.name == "weather"
        assert stream.schema.class_names == ("stay", "go")
        assert stream.schema.attributes[1].values == ("clear", "cloudy")
        assert stream.instances == [
            Instance((21.5, 0), label=1),
            Instance((MISSING, 1), label=0),
            Instance((3.0, MISSING), label=1),
        ]

    def test_integer_and_real_types(self, tmp_path):
        p = tmp_path / "w.arff"
        p.write_text(
            "@relation r\n@attribute a integer\n@attribute b real\n"
            "@attribute class {x,y}\n@data\n1,2.5,x\n"
        )
        stream = read_arff(p)
        assert stream.instances[0].features == (1.0, 2.5)

    def test_quoted_names_and_values(self, tmp_path):
        p = tmp_path / "w.arff"
        p.write_text(
            "@relation 'my stream'\n@attribute 'the temp' numeric\n"
            "@attribute class {'a b', c}\n@data\n1.0,'a b'\n2.0,c\n"
        )
        stream = read_arff(p)
        assert stream.name == "my stream"
        assert stream.schema.attributes[0].name == "the temp"
        assert [i.label for i in stream] == [0, 1]

    def test_missing_relation(self, tmp_path):
        p = tmp_path / "w.arff"
        p.write_text("@attribute a numeric\n@attribute class {x,y}\n@data\n1,x\n")
        with pytest.raises(MalformedHeader):
            read_arff(p)

    def test_missing_data_section(self, tmp_path):
        p = tmp_path / "w.arff"
        p.write_text("@relation r\n@attribute a numeric\n@attribute class {x,y}\n")
        with pytest.raises(MalformedHeader):
            read_arff(p)

    def test_unsupported_attribute_type(self, tmp_path):
        p = tmp_path / "w.arff"
        p.write_text("@relation r\n@attribute a date\n@attribute class {x,y}\n@data\n")
        with pytest.raises(MalformedHeader, match="date"):
            read_arff(p)

    def test_numeric_class_attribute_rejected(self, tmp_path):
        p = tmp_path / "w.arff"
        p.write_text("@relation r\n@attribute a numeric\n@attribute b numeric\n@data\n")
        with pytest.raises(MalformedHeader, match="nominal"):
            read_arff(p)

    def test_sparse_rows_rejected(self, tmp_path):
        p = tmp_path / "w.arff"
        p.write_text(
            "@relation r\n@attribute a numeric\n@attribute class {x,y}\n"
            "@data\n{0 1.0, 1 x}\n"
        )
        with pytest.raises(SparseNotSupported):
            read_arff(p)

    def test_row_arity_checked(self, tmp_path):
        p = tmp_path / "w.arff"
        p.write_text("@relation r\n@attribute a numeric\n@attribute class {x,y}\n@data\n1,2,x\n")
        with pytest.raises(SchemaMismatch, match=":5"):
            read_arff(p)

    def test_unknown_nominal_value(self, tmp_path):
        p = tmp_path / "w.arff"
        p.write_text(ARFF_OK + "5.0, hazy, go\n")
        with pytest.raises(UnknownNominalValue, match="hazy"):
            read_arff(p)

    def test_unknown_class_value(self, tmp_path):
        p = tmp_path / "w.arff"
        p.write_text(ARFF_OK + "5.0, clear, maybe\n")
        with pytest.raises(UnknownClass, match="maybe"):
            read_arff(p)

    def test_comments_and_blanks_ignored(self, tmp_path):
        p = tmp_path / "w.arff"
        p.write_text(
            "% top comment\n\n@relation r\n% mid comment\n@attribute a numeric\n"
            "@attribute class {x,y}\n@data\n% data comment\n1.0,x\n\n2.0,y\n"
        )
        assert len(read_arff(p)) == 2


class TestNonFiniteCells:
    """``inf``, ``-inf`` and overflowing literals read as missing, so a
    learner never sees a non-finite feature."""

    ROWS = [
        (0.1 * i + (2.0 if i % 2 else 0.0), -0.05 * i, "go" if i % 2 else "stay")
        for i in range(40)
    ]
    BAD = {3: ("inf", "1.0"), 8: ("-inf", "1e999"), 15: ("1e999", "-inf")}

    def lines(self):
        out = []
        for i, (a, b, label) in enumerate(self.ROWS):
            a, b = self.BAD.get(i, (repr(a), repr(b)))
            out.append(f"{a},{b},{label}")
        return out

    def check(self, stream):
        for i, inst in enumerate(stream.instances):
            if i in self.BAD:
                cells = self.BAD[i]
                expected = tuple(None if c != "1.0" else 1.0 for c in cells)
                assert inst.features == expected, i
            else:
                assert inst.features == self.ROWS[i][:2]
        config = HybridConfig(learner="nb", active="random", budget=1.0)
        records, _ = run_stream(stream, config, record_stride=1)
        floor = 1.0 / stream.schema.class_count
        assert all(floor <= r.top_prob <= 1.0 for r in records)

    def test_csv(self, tmp_path):
        p = tmp_path / "inf.csv"
        p.write_text("a,b,class\n" + "\n".join(self.lines()) + "\n")
        self.check(read_csv(p))

    def test_arff(self, tmp_path):
        p = tmp_path / "inf.arff"
        header = (
            "@relation inf\n@attribute a numeric\n@attribute b numeric\n"
            "@attribute class {stay, go}\n@data\n"
        )
        p.write_text(header + "\n".join(self.lines()) + "\n")
        self.check(read_arff(p))


class TestStreamSpec:
    def test_generator_spec_loads_and_reloads(self):
        spec = parse_stream_spec("gen:family=sea-like-thresholds,kind=sudden,n=50,changes=25,seed=3")
        a = spec.load()
        b = spec.load()
        assert a.instances == b.instances
        assert len(a) == 50
        assert a.metadata["change_points"] == [25]

    def test_generator_seed_fallback(self):
        spec = parse_stream_spec("gen:n=30")
        a = spec.load(seed_fallback=1)
        b = spec.load(seed_fallback=2)
        assert a.instances != b.instances
        # an explicit seed pins the stream regardless of the fallback
        pinned = parse_stream_spec("gen:n=30,seed=5")
        assert pinned.load(seed_fallback=1).instances == pinned.load(seed_fallback=2).instances

    def test_generator_spec_multiple_changes(self):
        spec = parse_stream_spec("gen:kind=gradual,n=100,changes=20|60,width=10,seed=1")
        assert spec.generator["change_points"] == [20, 60]
        assert len(spec.load()) == 100

    def test_family_params_pass_through(self):
        spec = parse_stream_spec("gen:family=gaussian-clusters,n=20,classes=3,dims=4,radius=2.5,seed=0")
        stream = spec.load()
        assert stream.schema.class_count == 3
        assert stream.schema.n_attributes == 4
        assert stream.metadata["params"]["radius"] == 2.5

    def test_unknown_generator_key(self):
        with pytest.raises(ConfigError, match="wobble"):
            parse_stream_spec("gen:wobble=3")

    def test_bad_generator_value(self):
        with pytest.raises(ConfigError, match="n"):
            parse_stream_spec("gen:n=lots")

    def test_unknown_family(self):
        with pytest.raises(ConfigError, match="mystery"):
            parse_stream_spec("gen:family=mystery")

    def test_missing_equals_sign(self):
        with pytest.raises(ConfigError):
            parse_stream_spec("gen:n")

    def test_path_spec_format_from_extension(self, tmp_path):
        spec = parse_stream_spec(str(tmp_path / "data.arff"))
        assert spec.fmt == "arff"
        assert spec.name == "data"
        spec = parse_stream_spec(str(tmp_path / "data.csv"))
        assert spec.fmt == "csv"

    def test_path_spec_loads_file(self, tmp_path):
        p = tmp_path / "tiny.csv"
        p.write_text("1.0,2.0,up\n3.0,4.0,down\n")
        stream = parse_stream_spec(str(p)).load()
        assert len(stream) == 2
        assert stream.name == "tiny"

    def test_bad_format_rejected(self, tmp_path):
        spec = StreamSpec(name="x", path=str(tmp_path / "f.bin"), fmt="parquet")
        with pytest.raises(ConfigError):
            spec.load()

    def test_spec_is_picklable(self):
        import pickle

        spec = parse_stream_spec("gen:n=10,seed=1")
        clone = pickle.loads(pickle.dumps(spec))
        assert clone == spec
        assert clone.load().instances == spec.load().instances
