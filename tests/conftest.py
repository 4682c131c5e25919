"""Shared fixture catalog for the test suite.

The catalog collects every crossed module that the acceptance criteria
range over, plus a couple of extras that exercise nonabelian actions and
kernels with several subgroups.
"""

from __future__ import annotations

from functools import lru_cache
from pathlib import Path

import pytest
from hypothesis import settings

from xmlift import (
    automorphism_xmod,
    catalog_group,
    inclusion_xmod,
    kernel,
    lifting_from_subgroup,
    make_crossed_module,
    make_hom,
    make_subgroup,
)
from xmlift.groups import conjugation_action, identity_hom, trivial_action, zero_hom

REPO_ROOT = Path(__file__).resolve().parent.parent

# every run draws the same examples, none is timed, and no failure from an
# earlier run is replayed, so property tests cannot flake between runs
settings.register_profile("xmlift", derandomize=True, deadline=None, database=None)
settings.load_profile("xmlift")


@lru_cache(maxsize=None)
def group(keyword: str):
    return catalog_group(keyword)


@lru_cache(maxsize=None)
def z4_mod2_base():
    z4, z2 = group("Z4"), group("Z2")
    mod2 = make_hom(z4, z2, (0, 1, 0, 1))
    return make_crossed_module(z4, z2, mod2, trivial_action(z2, z4))


@lru_cache(maxsize=None)
def inclusion_a3_s3():
    s3 = group("S3")
    return inclusion_xmod(make_subgroup(s3, (0, 3, 4)))


@lru_cache(maxsize=None)
def s3_identity_xmod():
    s3 = group("S3")
    return make_crossed_module(s3, s3, identity_hom(s3), conjugation_action(s3))


@lru_cache(maxsize=None)
def v4_zero_base():
    v4, z1 = group("Z2xZ2"), group("Z1")
    return make_crossed_module(v4, z1, zero_hom(v4, z1), trivial_action(z1, v4))


@lru_cache(maxsize=None)
def v4_pr1_base():
    v4, z2 = group("Z2xZ2"), group("Z2")
    pr1 = make_hom(v4, z2, (0, 0, 1, 1))
    return make_crossed_module(v4, z2, pr1, trivial_action(z2, v4))


@lru_cache(maxsize=None)
def quotient_lifting_xmod(base_name: str):
    """The induced crossed module (A, A/N, p) of the full-kernel lifting."""
    base = catalog_xmods()[base_name]
    ker = kernel(base.boundary)
    return lifting_from_subgroup(base, ker).induced


@lru_cache(maxsize=None)
def catalog_xmods():
    """Every crossed module the acceptance criteria quantify over."""
    return {
        "z4_mod2": z4_mod2_base(),
        "incl_a3_s3": inclusion_a3_s3(),
        "aut_z3": automorphism_xmod(group("Z3")),
        "aut_s3": automorphism_xmod(group("S3")),
        "aut_v4": automorphism_xmod(group("Z2xZ2")),
        "s3_identity": s3_identity_xmod(),
        "v4_zero": v4_zero_base(),
        "v4_pr1": v4_pr1_base(),
    }


@lru_cache(maxsize=None)
def catalog_with_quotients():
    """Catalog plus the example (iv) quotient lifting crossed modules."""
    out = dict(catalog_xmods())
    for name in ("z4_mod2", "aut_v4", "incl_a3_s3"):
        out[f"quotient_iv({name})"] = quotient_lifting_xmod(name)
    return out


@pytest.fixture(scope="session")
def xmods():
    return catalog_xmods()


@pytest.fixture(scope="session")
def xmods_with_quotients():
    return catalog_with_quotients()


@pytest.fixture(autouse=True)
def _run_from_repo_root(monkeypatch):
    # golden cases reference fixture files by repo relative path
    monkeypatch.chdir(REPO_ROOT)


@pytest.fixture(scope="session")
def fixtures_dir() -> Path:
    return REPO_ROOT / "fixtures"


@pytest.fixture(scope="session")
def golden_dir() -> Path:
    return Path(__file__).resolve().parent / "golden"
