import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from driftlab.core import (
    MISSING,
    NOMINAL,
    NUMERIC,
    Attribute,
    ConfigError,
    DriftLabError,
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


def pairs(instances):
    """Instances as (features, label) pairs, which compare by value."""
    return [(inst.features, inst.label) for inst in instances]


class TestReadCsv:
    def test_missing_cells(self, tmp_path):
        p = tmp_path / "s.csv"
        p.write_text("temp,wind,class\n?,1.0,go\n4.5,?,stay\n,,go\n")
        stream = read_csv(p)
        assert stream.instances[0].features == (MISSING, 1.0)
        assert stream.instances[1].features == (4.5, MISSING)
        assert stream.instances[2].features == (MISSING, MISSING)

    def test_arity_mismatch(self, tmp_path):
        p = tmp_path / "s.csv"
        p.write_text("1.0,2.0,go\n1.0,go\n")
        with pytest.raises(SchemaMismatch, match=":2"):
            read_csv(p)

    @pytest.mark.parametrize("name", [None, "renamed"])
    def test_errors_name_file_lines_past_blank_lines(self, tmp_path, name):
        # the error names the file, whatever the stream is called
        p = tmp_path / "s.csv"
        p.write_text("temp,wind,class\n\n1.0,2.0,go\n\n\n1.0,go\n")
        with pytest.raises(SchemaMismatch, match=r"s\.csv:6: expected 3 fields"):
            read_csv(p, name=name)

    def test_unknown_class_names_file_line(self, tmp_path):
        # a missing class cell is not registered as a class of its own
        p = tmp_path / "s.csv"
        for cell, shown in (("?", r"'\?'"), ("", "''")):
            p.write_text(f"temp,wind,class\n1.0,2.0,go\n\n1.0,2.0,{cell}\n")
            with pytest.raises(UnknownClass, match=r"s\.csv:4: unknown class value " + shown):
                read_csv(p)

    def test_short_first_row_names_its_file_line(self, tmp_path):
        p = tmp_path / "s.csv"
        p.write_text("a,class\n\n\ngo\n")
        with pytest.raises(SchemaMismatch, match=r"s\.csv:4: rows need at least 2 fields"):
            read_csv(p)

    def test_inferred_schema_is_all_numeric(self, tmp_path):
        p = tmp_path / "s.csv"
        p.write_text("a,b,class\n1.0,2.0,up\n3.5,bad,down\n0.5,4.0,up\n")
        stream = read_csv(p)
        schema = stream.schema
        assert all(a.kind == NUMERIC for a in schema.attributes)
        assert [a.name for a in schema.attributes] == ["a", "b"]
        # class indices in order of first appearance
        assert schema.class_names == ("up", "down")
        assert [i.label for i in stream.instances] == [0, 1, 0]
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
        stream = read_csv(p)
        assert len(stream) == 2
        assert stream.instances[0].features == (1.0, MISSING)

    def test_blank_lines_skipped(self, tmp_path):
        p = tmp_path / "s.csv"
        p.write_text("temp,wind,class\n\n1.0,2.0,go\n\n3.0,4.0,stay\n\n")
        stream = read_csv(p)
        assert len(stream) == 2
        assert [a.name for a in stream.schema.attributes] == ["temp", "wind"]

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
    def test_writes_nominal_cells_by_name(self, tmp_path):
        rows = [
            Instance((21.5, 0), label=1),
            Instance((MISSING, 1), label=0),
            Instance((-3.25e-5, MISSING), label=1),
        ]
        stream = LoadedStream("w", MIXED_SCHEMA, rows, {})
        p = tmp_path / "out.csv"
        write_csv(p, stream)
        assert p.read_bytes().decode() == (
            "temp,sky,class\r\n21.5,clear,go\r\n?,cloudy,stay\r\n-3.25e-05,?,go\r\n"
        )

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
        assert [i.features for i in back.instances] == [i.features for i in stream.instances]
        assert [back.schema.class_names[i.label] for i in back.instances] == [
            stream.schema.class_names[i.label] for i in stream.instances
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
    # shortest-repr float formatting must survive a full write/read cycle;
    # a CSV stream needs two classes, so one row of each closes the file
    schema = StreamSchema(
        (Attribute("x0", NUMERIC), Attribute("x1", NUMERIC)), ("c0", "c1")
    )
    rows = rows + [(0.0, None, 0), (0.0, None, 1)]
    instances = [Instance((a, b), label=y) for a, b, y in rows]
    stream = LoadedStream("prop", schema, instances, {})
    p = tmp_path_factory.mktemp("rt") / "x.csv"
    write_csv(p, stream)
    back = read_csv(p)
    assert [i.features for i in back.instances] == [i.features for i in instances]
    # classes are numbered in order of first appearance, so compare names
    assert [back.schema.class_names[i.label] for i in back.instances] == [
        schema.class_names[i.label] for i in instances
    ]


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
        assert pairs(stream.instances) == [
            ((21.5, 0), 1),
            ((MISSING, 1), 0),
            ((3.0, MISSING), 1),
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
        assert [i.label for i in stream.instances] == [0, 1]

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
        p.write_text(ARFF_OK + "\n5.0, clear, maybe\n")
        with pytest.raises(UnknownClass, match=r"w\.arff:13: unknown class value 'maybe'"):
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
        assert pairs(a.instances) == pairs(b.instances)
        assert len(a) == 50
        assert a.metadata["change_points"] == [25]

    def test_generator_seed_fallback(self):
        spec = parse_stream_spec("gen:n=30")
        a = spec.load(seed_fallback=1)
        b = spec.load(seed_fallback=2)
        assert pairs(a.instances) != pairs(b.instances)
        # an explicit seed pins the stream regardless of the fallback
        pinned = parse_stream_spec("gen:n=30,seed=5")
        assert pairs(pinned.load(seed_fallback=1).instances) == pairs(pinned.load(seed_fallback=2).instances)

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

    def test_default_name_carries_every_key_it_does_not_show(self):
        spec = parse_stream_spec("gen:n=30,classes=3,kind=sudden,seed=2")
        assert spec.name == "gaussian-clusters-sudden-30-classes=3-seed=2"
        assert parse_stream_spec("gen:n=30").name == "gaussian-clusters-sudden-30"
        assert parse_stream_spec("gen:n=30,seed=2,name=mine").name == "mine"

    def test_unknown_generator_key(self):
        with pytest.raises(ConfigError, match="wobble"):
            parse_stream_spec("gen:wobble=3")

    def test_bad_generator_value(self):
        with pytest.raises(ConfigError, match="n"):
            parse_stream_spec("gen:n=lots")

    def test_unknown_family(self):
        with pytest.raises(ConfigError, match="mystery"):
            parse_stream_spec("gen:family=mystery")

    @pytest.mark.parametrize(
        "text, message",
        [
            ("gen:kind=gradual,n=1200,changes=600", "transition width >= 1"),
            ("gen:n=1200,classes=1", "at least 2 classes"),
            ("gen:n=500,changes=600", "change point 600 outside stream of 500"),
            ("gen:n=0", "stream length must be at least 1"),
            ("gen:family=sea-like-thresholds,classes=3", "bad parameters"),
        ],
        ids=["gradual-without-width", "one-class", "change-past-end", "empty", "bad-family-parameter"],
    )
    def test_unloadable_generator_spec_fails_at_parse(self, text, message):
        with pytest.raises(DriftLabError, match=message):
            parse_stream_spec(text)

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
        assert pairs(clone.load().instances) == pairs(spec.load().instances)
