"""Tests for the INI run-configuration layer."""

from __future__ import annotations

import dataclasses

import pytest

from mmfuse.config import (
    EvalSettings,
    ModelSettings,
    RunConfig,
    apply_master_seed,
    default_config,
    load_config,
    parse_config,
    render_config,
)
from mmfuse.errors import InputError
from mmfuse.model import Variant


def test_defaults_round_trip_through_canonical_text():
    config = default_config()
    text = render_config(config)
    assert parse_config(text) == config
    assert render_config(parse_config(text)) == text  # canonical form is a fixed point


def test_empty_document_gives_defaults():
    assert parse_config("") == default_config()
    assert parse_config("[train]\n") == default_config()


def test_partial_overrides_keep_other_defaults():
    config = parse_config("[data]\nn_samples = 100\n\n[train]\nmax_epochs = 2\n")
    assert config.synthetic.n_samples == 100
    assert config.synthetic.d_t == 16
    assert config.train.max_epochs == 2
    assert config.train.batch_size == 32


def test_unknown_sections_and_keys_are_named():
    with pytest.raises(InputError, match="bogus"):
        parse_config("[bogus]\nx = 1\n")
    with pytest.raises(InputError, match="data.widget"):
        parse_config("[data]\nwidget = 1\n")
    with pytest.raises(InputError, match="train.lr"):
        parse_config("[train]\nlr = 0.1\n")


def test_type_errors_name_section_and_key():
    with pytest.raises(InputError, match="data.n_samples"):
        parse_config("[data]\nn_samples = many\n")
    with pytest.raises(InputError, match="train.learning_rate"):
        parse_config("[train]\nlearning_rate = fast\n")


def test_invalid_values_are_rejected_with_key_names():
    with pytest.raises(InputError, match="n_samples"):
        parse_config("[data]\nn_samples = 0\n")
    with pytest.raises(InputError, match="conflict_rate"):
        parse_config("[data]\nconflict_rate = 1.5\n")
    with pytest.raises(InputError, match="fractions"):
        parse_config("[data]\ntrain_frac = 0.9\nval_frac = 0.9\ntest_frac = 0.1\n")
    with pytest.raises(InputError, match="train_frac"):
        parse_config("[data]\ntrain_frac = -0.5\nval_frac = 1.4\ntest_frac = 0.1\n")


def test_variant_parsing():
    config = parse_config("[model]\nvariant = fixed-attention\n")
    assert config.model.variant is Variant.FIXED_ATTENTION
    with pytest.raises(InputError, match="text-only"):
        parse_config("[model]\nvariant = bogus\n")  # message lists valid names


def test_d_k_defaults_to_common_dim():
    assert ModelSettings(d_c=6).d_k == 6
    assert ModelSettings(d_c=6, d_k=6).d_k == 6
    config = parse_config("[model]\nd_c = 6\n")
    assert config.model.d_k == 6


def test_sigma_list_parsing():
    config = parse_config("[eval]\nsigmas = 0.25, 0.75 ,2\n")
    assert config.eval.sigmas == (0.25, 0.75, 2.0)
    assert parse_config("[eval]\nsigmas =\n").eval.sigmas == ()
    with pytest.raises(InputError, match="sigmas"):
        parse_config("[eval]\nsigmas = a,b\n")
    with pytest.raises(InputError, match="sigmas"):
        parse_config("[eval]\nsigmas = -0.5\n")
    with pytest.raises(InputError, match="sigmas"):
        parse_config("[eval]\nsigmas = 0.5, inf\n")
    with pytest.raises(InputError, match="threshold"):
        parse_config("[eval]\nthreshold = -1\n")


def test_feature_file_empty_means_synthetic():
    assert parse_config("[data]\nfeature_file =\n").feature_file is None
    config = parse_config("[data]\nfeature_file = /tmp/x.mmfn\n")
    assert config.feature_file == "/tmp/x.mmfn"


def test_master_seed_expansion():
    base = default_config()
    seeded = apply_master_seed(base, 7)
    again = apply_master_seed(base, 7)
    assert seeded == again
    other = apply_master_seed(base, 8)
    fields = [
        lambda c: c.synthetic.seed,
        lambda c: c.split_seed,
        lambda c: c.model.init_seed,
        lambda c: c.train.seed,
        lambda c: c.eval.noise_seed,
    ]
    values = [f(seeded) for f in fields]
    assert len(set(values)) == 5  # five distinct purposes, five distinct seeds
    assert [f(other) for f in fields] != values
    # nothing else changes
    assert dataclasses.replace(
        seeded,
        synthetic=base.synthetic,
        split_seed=base.split_seed,
        model=base.model,
        train=base.train,
        eval=base.eval,
    ) == base
    with pytest.raises(InputError):
        apply_master_seed(base, -1)


def test_seeded_config_round_trips():
    seeded = apply_master_seed(default_config(), 123)
    assert parse_config(render_config(seeded)) == seeded


def test_load_config_missing_file(tmp_path):
    with pytest.raises(InputError, match="cannot read"):
        load_config(tmp_path / "absent.ini")
    path = tmp_path / "ok.ini"
    path.write_text("[train]\nmax_epochs = 4\n")
    assert load_config(path).train.max_epochs == 4


def test_malformed_document_is_usage_error():
    with pytest.raises(InputError, match="malformed"):
        parse_config("not an ini file at all [")
    with pytest.raises(InputError, match="malformed"):
        parse_config("[data]\nn_samples = 1\nn_samples = 2\n")  # duplicate key


def test_eval_settings_validation():
    with pytest.raises(InputError):
        EvalSettings(sigmas=(0.5, 0.0))
    with pytest.raises(InputError):
        EvalSettings(threshold=-0.2)
    with pytest.raises(InputError):
        EvalSettings(threshold=float("nan"))


def test_run_config_fractions_property():
    config = RunConfig(train_frac=0.6, val_frac=0.2, test_frac=0.2)
    assert config.fractions == (0.6, 0.2, 0.2)
