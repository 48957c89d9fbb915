import codebounds


def test_every_export_resolves_once():
    names = codebounds.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert hasattr(codebounds, name), name
