import shutil

import pytest

import optograv as og
import setups


@pytest.fixture(scope="session")
def ref_params():
    return setups.reference_params()


@pytest.fixture(scope="session")
def ref_couplings(ref_params):
    return og.derive_couplings(ref_params)


@pytest.fixture(scope="session")
def boosted_params():
    """Dimensionless setup with gamma boosted into the resolvable regime."""
    return setups.dimensionless_params(gamma=1e-2, lambda_m=0.445, lambda_M=0.521)


@pytest.fixture(scope="session")
def boosted_couplings(boosted_params):
    return og.derive_couplings(boosted_params)


@pytest.fixture()
def reference_config(tmp_path):
    return shutil.copy(setups.REFERENCE_CFG, tmp_path / "reference.cfg")
